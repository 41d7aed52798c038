//! The occupancy arena: a grid of allocated/free CLBs with named tasks.

use crate::alloc::Strategy;
use crate::error::PlaceError;
use crate::frag::FragMetrics;
use rtm_fpga::geom::{ClbCoord, Rect};
use std::collections::BTreeMap;

/// Identifier of an allocated task.
pub type TaskId = u64;

/// Occupancy grid over a rectangular arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arena {
    bounds: Rect,
    grid: Vec<bool>,
}

impl Arena {
    /// An empty arena covering `bounds`.
    pub fn new(bounds: Rect) -> Self {
        Arena {
            bounds,
            grid: vec![false; bounds.area() as usize],
        }
    }

    /// The arena bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    fn idx(&self, coord: ClbCoord) -> usize {
        let r = (coord.row - self.bounds.origin.row) as usize;
        let c = (coord.col - self.bounds.origin.col) as usize;
        r * self.bounds.cols as usize + c
    }

    /// True if `coord` is occupied.
    ///
    /// # Panics
    ///
    /// Panics if `coord` is outside the arena.
    pub fn occupied(&self, coord: ClbCoord) -> bool {
        assert!(self.bounds.contains(coord), "{coord} outside arena");
        self.grid[self.idx(coord)]
    }

    /// Number of free CLBs.
    pub fn free_cells(&self) -> u32 {
        self.grid.iter().filter(|o| !**o).count() as u32
    }

    /// True if `rect` lies inside the arena and is entirely free.
    pub fn fits(&self, rect: &Rect) -> bool {
        self.bounds.contains_rect(rect) && rect.iter().all(|c| !self.occupied(c))
    }

    /// Marks `rect` occupied.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::OutOfBounds`] or [`PlaceError::Overlap`].
    pub fn claim(&mut self, rect: &Rect) -> Result<(), PlaceError> {
        if !self.bounds.contains_rect(rect) {
            return Err(PlaceError::OutOfBounds { rect: *rect });
        }
        if rect.iter().any(|c| self.occupied(c)) {
            return Err(PlaceError::Overlap { rect: *rect });
        }
        for c in rect.iter() {
            let i = self.idx(c);
            self.grid[i] = true;
        }
        Ok(())
    }

    /// Marks `rect` free.
    ///
    /// # Panics
    ///
    /// Panics if `rect` leaves the arena.
    pub fn release(&mut self, rect: &Rect) {
        assert!(self.bounds.contains_rect(rect), "release outside arena");
        for c in rect.iter() {
            let i = self.idx(c);
            self.grid[i] = false;
        }
    }

    /// All origins at which a `rows`×`cols` rectangle would fit, in
    /// row-major order.
    pub fn candidate_origins(&self, rows: u16, cols: u16) -> Vec<ClbCoord> {
        let mut out = Vec::new();
        if rows == 0 || cols == 0 || rows > self.bounds.rows || cols > self.bounds.cols {
            return out;
        }
        for r in self.bounds.origin.row..=(self.bounds.row_end() - rows) {
            for c in self.bounds.origin.col..=(self.bounds.col_end() - cols) {
                let rect = Rect::new(ClbCoord::new(r, c), rows, cols);
                if self.fits(&rect) {
                    out.push(rect.origin);
                }
            }
        }
        out
    }

    /// The summed-area table of the occupancy grid.
    pub(crate) fn occupancy(&self) -> SumTable {
        SumTable::new(self.bounds, self.grid.iter().copied())
    }

    /// Area of the largest fully-free rectangle (histogram method,
    /// O(rows × cols)).
    pub fn largest_free_rect(&self) -> u32 {
        let (rows, cols) = (self.bounds.rows as usize, self.bounds.cols as usize);
        let mut heights = vec![0u32; cols];
        let mut best = 0u32;
        for r in 0..rows {
            for (c, h) in heights.iter_mut().enumerate() {
                *h = if self.grid[r * cols + c] { 0 } else { *h + 1 };
            }
            best = best.max(max_histogram_area(&heights));
        }
        best
    }
}

/// A summed-area table over the cells of a rectangle: one O(rows × cols)
/// pass, then the number of set cells in any rectangle in O(1).
#[derive(Debug)]
pub(crate) struct SumTable {
    area: Rect,
    /// `(rows + 1) × (cols + 1)` prefix sums: entry `(r, c)` counts the
    /// set cells in the first `r` rows and `c` columns of `area`.
    sums: Vec<u32>,
}

impl SumTable {
    /// The table of `area`, whose cells `set` gives in row-major order.
    pub(crate) fn new(area: Rect, set: impl IntoIterator<Item = bool>) -> Self {
        let (rows, cols) = (area.rows as usize, area.cols as usize);
        let stride = cols + 1;
        let mut sums = vec![0u32; (rows + 1) * stride];
        let mut set = set.into_iter();
        for r in 0..rows {
            let mut in_row = 0;
            for c in 0..cols {
                in_row += u32::from(set.next() == Some(true));
                sums[(r + 1) * stride + c + 1] = sums[r * stride + c + 1] + in_row;
            }
        }
        SumTable { area, sums }
    }

    /// The number of set cells of the table's area that lie in `rect`.
    pub(crate) fn count(&self, rect: &Rect) -> u32 {
        let Some(clip) = self.area.intersection(rect) else {
            return 0;
        };
        let stride = self.area.cols as usize + 1;
        let r0 = (clip.origin.row - self.area.origin.row) as usize;
        let c0 = (clip.origin.col - self.area.origin.col) as usize;
        let (r1, c1) = (r0 + clip.rows as usize, c0 + clip.cols as usize);
        self.sums[r1 * stride + c1] + self.sums[r0 * stride + c0]
            - self.sums[r0 * stride + c1]
            - self.sums[r1 * stride + c0]
    }
}

fn max_histogram_area(heights: &[u32]) -> u32 {
    let mut stack: Vec<usize> = Vec::new();
    let mut best = 0u32;
    for i in 0..=heights.len() {
        let h = if i == heights.len() { 0 } else { heights[i] };
        while let Some(&top) = stack.last() {
            if heights[top] <= h {
                break;
            }
            stack.pop();
            let width = match stack.last() {
                Some(&prev) => i - prev - 1,
                None => i,
            };
            best = best.max(heights[top] * width as u32);
        }
        stack.push(i);
    }
    best
}

/// An arena plus the task table: who owns which rectangle.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskArena {
    arena: Arena,
    tasks: BTreeMap<TaskId, Rect>,
}

impl TaskArena {
    /// An empty task arena covering `bounds`.
    pub fn new(bounds: Rect) -> Self {
        TaskArena {
            arena: Arena::new(bounds),
            tasks: BTreeMap::new(),
        }
    }

    /// The underlying occupancy arena.
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// The task table.
    pub fn tasks(&self) -> &BTreeMap<TaskId, Rect> {
        &self.tasks
    }

    /// The rectangle of one task.
    pub fn task_rect(&self, id: TaskId) -> Option<Rect> {
        self.tasks.get(&id).copied()
    }

    /// Allocates a `rows`×`cols` region for task `id` using `strategy`.
    /// Returns the placed rectangle.
    ///
    /// # Errors
    ///
    /// [`PlaceError::DuplicateTask`] if `id` is live,
    /// [`PlaceError::NoFit`] if no free region is large enough.
    pub fn allocate(
        &mut self,
        id: TaskId,
        rows: u16,
        cols: u16,
        strategy: Strategy,
    ) -> Result<Rect, PlaceError> {
        if self.tasks.contains_key(&id) {
            return Err(PlaceError::DuplicateTask { id });
        }
        let origin = strategy
            .choose(&self.arena, rows, cols)
            .ok_or(PlaceError::NoFit { rows, cols })?;
        let rect = Rect::new(origin, rows, cols);
        self.arena.claim(&rect)?;
        self.tasks.insert(id, rect);
        Ok(rect)
    }

    /// Places task `id` at an exact position (used when replaying plans).
    ///
    /// # Errors
    ///
    /// [`PlaceError::DuplicateTask`], [`PlaceError::OutOfBounds`] or
    /// [`PlaceError::Overlap`].
    pub fn allocate_at(&mut self, id: TaskId, rect: Rect) -> Result<(), PlaceError> {
        if self.tasks.contains_key(&id) {
            return Err(PlaceError::DuplicateTask { id });
        }
        self.arena.claim(&rect)?;
        self.tasks.insert(id, rect);
        Ok(())
    }

    /// Releases task `id`'s region.
    ///
    /// # Errors
    ///
    /// [`PlaceError::UnknownTask`] if `id` is not live.
    pub fn release(&mut self, id: TaskId) -> Result<Rect, PlaceError> {
        let rect = self
            .tasks
            .remove(&id)
            .ok_or(PlaceError::UnknownTask { id })?;
        self.arena.release(&rect);
        Ok(rect)
    }

    /// Moves task `id` to `to` (the bookkeeping side of a relocation).
    ///
    /// The move is atomic: on error the task keeps its old region. The
    /// destination may overlap the source (sliding moves) — overlap with
    /// *other* tasks is rejected.
    ///
    /// # Errors
    ///
    /// [`PlaceError::UnknownTask`], [`PlaceError::OutOfBounds`] or
    /// [`PlaceError::Overlap`].
    pub fn relocate(&mut self, id: TaskId, to: Rect) -> Result<(), PlaceError> {
        let from = self
            .tasks
            .get(&id)
            .copied()
            .ok_or(PlaceError::UnknownTask { id })?;
        if to.rows != from.rows || to.cols != from.cols {
            return Err(PlaceError::OutOfBounds { rect: to });
        }
        self.arena.release(&from);
        match self.arena.claim(&to) {
            Ok(()) => {
                self.tasks.insert(id, to);
                Ok(())
            }
            Err(e) => {
                self.arena.claim(&from).expect("restoring old region");
                Err(e)
            }
        }
    }

    /// Current fragmentation metrics.
    pub fn fragmentation(&self) -> FragMetrics {
        FragMetrics::of(&self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Strategy as Alloc;
    use proptest::prelude::*;

    fn arena() -> Arena {
        Arena::new(Rect::new(ClbCoord::new(0, 0), 8, 8))
    }

    #[test]
    fn claim_release_roundtrip() {
        let mut a = arena();
        let r = Rect::new(ClbCoord::new(1, 1), 3, 3);
        a.claim(&r).unwrap();
        assert!(a.occupied(ClbCoord::new(2, 2)));
        assert_eq!(a.free_cells(), 64 - 9);
        a.release(&r);
        assert_eq!(a.free_cells(), 64);
    }

    #[test]
    fn overlap_rejected() {
        let mut a = arena();
        a.claim(&Rect::new(ClbCoord::new(0, 0), 4, 4)).unwrap();
        let err = a.claim(&Rect::new(ClbCoord::new(3, 3), 2, 2)).unwrap_err();
        assert!(matches!(err, PlaceError::Overlap { .. }));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut a = arena();
        let err = a.claim(&Rect::new(ClbCoord::new(6, 6), 4, 4)).unwrap_err();
        assert!(matches!(err, PlaceError::OutOfBounds { .. }));
    }

    #[test]
    fn largest_free_rect_empty_and_split() {
        let mut a = arena();
        assert_eq!(a.largest_free_rect(), 64);
        // A full-height wall down the middle splits the arena.
        a.claim(&Rect::new(ClbCoord::new(0, 3), 8, 1)).unwrap();
        assert_eq!(a.largest_free_rect(), 8 * 4);
    }

    #[test]
    fn candidate_origins_row_major() {
        let mut a = arena();
        a.claim(&Rect::new(ClbCoord::new(0, 0), 8, 7)).unwrap(); // leave last column
        let cands = a.candidate_origins(2, 1);
        assert_eq!(cands.first(), Some(&ClbCoord::new(0, 7)));
        assert_eq!(cands.len(), 7);
        assert!(a.candidate_origins(1, 2).is_empty());
        assert!(a.candidate_origins(0, 1).is_empty());
        assert!(a.candidate_origins(9, 1).is_empty());
    }

    #[test]
    fn task_arena_lifecycle() {
        let mut t = TaskArena::new(Rect::new(ClbCoord::new(0, 0), 8, 8));
        let r1 = t.allocate(1, 4, 4, Alloc::FirstFit).unwrap();
        assert_eq!(t.task_rect(1), Some(r1));
        assert!(matches!(
            t.allocate(1, 1, 1, Alloc::FirstFit),
            Err(PlaceError::DuplicateTask { id: 1 })
        ));
        let released = t.release(1).unwrap();
        assert_eq!(released, r1);
        assert!(matches!(
            t.release(1),
            Err(PlaceError::UnknownTask { id: 1 })
        ));
    }

    #[test]
    fn relocate_moves_atomically() {
        let mut t = TaskArena::new(Rect::new(ClbCoord::new(0, 0), 8, 8));
        t.allocate_at(1, Rect::new(ClbCoord::new(0, 0), 2, 2))
            .unwrap();
        t.allocate_at(2, Rect::new(ClbCoord::new(0, 4), 2, 2))
            .unwrap();
        // Sliding move overlapping itself is fine.
        t.relocate(1, Rect::new(ClbCoord::new(1, 1), 2, 2)).unwrap();
        assert_eq!(t.task_rect(1), Some(Rect::new(ClbCoord::new(1, 1), 2, 2)));
        // Collision with task 2 restores the original.
        let err = t
            .relocate(1, Rect::new(ClbCoord::new(0, 3), 2, 2))
            .unwrap_err();
        assert!(matches!(err, PlaceError::Overlap { .. }));
        assert_eq!(t.task_rect(1), Some(Rect::new(ClbCoord::new(1, 1), 2, 2)));
        // Size change rejected.
        assert!(t.relocate(2, Rect::new(ClbCoord::new(4, 4), 3, 2)).is_err());
    }

    #[test]
    fn allocation_failure_when_fragmented_despite_free_area() {
        // The paper's core motivating scenario: enough total free cells,
        // but no contiguous region.
        let mut t = TaskArena::new(Rect::new(ClbCoord::new(0, 0), 4, 8));
        // Checkerboard of 1x2 tasks leaving 16 free cells in slivers.
        for (i, col) in [0u16, 3, 6].iter().enumerate() {
            t.allocate_at(i as u64, Rect::new(ClbCoord::new(0, *col), 4, 2))
                .unwrap();
        }
        assert!(t.arena().free_cells() >= 8);
        let err = t.allocate(99, 4, 3, Alloc::FirstFit).unwrap_err();
        assert!(matches!(err, PlaceError::NoFit { .. }));
    }

    proptest! {
        #[test]
        fn free_cells_consistent_with_claims(ops in proptest::collection::vec(
            (0u16..6, 0u16..6, 1u16..3, 1u16..3), 0..20))
        {
            let mut a = Arena::new(Rect::new(ClbCoord::new(0, 0), 8, 8));
            let mut claimed: Vec<Rect> = Vec::new();
            for (r, c, h, w) in ops {
                let rect = Rect::new(ClbCoord::new(r, c), h, w);
                if a.claim(&rect).is_ok() {
                    claimed.push(rect);
                }
            }
            let used: u32 = claimed.iter().map(|r| r.area()).sum();
            prop_assert_eq!(a.free_cells(), 64 - used);
            for r in &claimed {
                a.release(r);
            }
            prop_assert_eq!(a.free_cells(), 64);
        }

        #[test]
        fn largest_free_rect_is_actually_free(rects in proptest::collection::vec(
            (0u16..7, 0u16..7, 1u16..3, 1u16..3), 0..12))
        {
            let mut a = Arena::new(Rect::new(ClbCoord::new(0, 0), 8, 8));
            for (r, c, h, w) in rects {
                let _ = a.claim(&Rect::new(ClbCoord::new(r, c), h, w));
            }
            let best = a.largest_free_rect();
            // Exhaustive check over all rectangles.
            let mut brute = 0;
            for r in 0..8u16 {
                for c in 0..8u16 {
                    for h in 1..=(8 - r) {
                        for w in 1..=(8 - c) {
                            let rect = Rect::new(ClbCoord::new(r, c), h, w);
                            if a.fits(&rect) {
                                brute = brute.max(rect.area());
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(best, brute);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn occupancy_counts_every_rectangle(rects in proptest::collection::vec(
            (0u16..6, 0u16..6, 1u16..3, 1u16..3), 0..10))
        {
            let bounds = Rect::new(ClbCoord::new(2, 3), 6, 6);
            let mut a = Arena::new(bounds);
            for (r, c, h, w) in rects {
                let _ = a.claim(&Rect::new(ClbCoord::new(2 + r, 3 + c), h, w));
            }
            let table = a.occupancy();
            // Rectangles reaching past the arena count only its cells.
            for r in 0..10u16 {
                for c in 0..10u16 {
                    for h in 0..=(10 - r) {
                        for w in 0..=(10 - c) {
                            let rect = Rect::new(ClbCoord::new(r, c), h, w);
                            let brute = rect
                                .iter()
                                .filter(|x| bounds.contains(*x) && a.occupied(*x))
                                .count() as u32;
                            prop_assert_eq!(table.count(&rect), brute);
                        }
                    }
                }
            }
        }
    }
}
