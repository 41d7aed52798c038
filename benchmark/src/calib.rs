//! Host-speed calibration. The benchmark runs on shared hosts whose speed
//! drifts by tens of percent over minutes, as neighbours come and go on
//! the same cores and caches. Each pass times this fixed computation just
//! before and just after its fleet run; scaling the pass's host times by
//! `REFERENCE_S` over the calibration's time takes most of that drift out
//! of the host metrics.
//!
//! The computation belongs to the benchmark and calls nothing in `rtm`,
//! so a change to the program under test cannot move it. It is a
//! shortest-path search with a binary heap over a grid, the kind of work
//! that dominates the program's admission path (net routing). Measured on
//! the 2-vCPU reference host, the log of a pass's run time moved with the
//! log of this calibration's time at slopes of 1.03 to 1.25 on both gated
//! workloads, where a dependent integer chain or scattered memory edits
//! moved at slopes from 0.4 to 3; see `README.md`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration takes on the reference host, a 2-vCPU x86-64
/// container on a shared Xeon. Host times are reported as the seconds
/// they would have taken there.
pub const REFERENCE_S: f64 = 0.1;

const GRID: usize = 96;
const SOURCES: usize = 128;

/// Working memory of the calibration, allocated and warmed once so the
/// timed part makes no page faults.
pub struct Calibration {
    weights: Vec<u32>,
    dist: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let weights = (0..GRID * GRID)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                1 + (s % 15) as u32
            })
            .collect();
        let mut c = Self {
            weights,
            dist: vec![0; GRID * GRID],
            heap: BinaryHeap::with_capacity(4 * GRID * GRID),
        };
        c.run();
        c
    }

    /// One calibration; returns its time in seconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut reach = 0u64;
        for k in 0..SOURCES {
            reach = reach.wrapping_add(self.route((k * 7919) % (GRID * GRID)));
        }
        black_box(reach);
        started.elapsed().as_secs_f64()
    }

    /// Dijkstra from `source` over the 4-connected grid; returns the sum
    /// of all distances.
    fn route(&mut self, source: usize) -> u64 {
        self.dist.fill(u32::MAX);
        self.heap.clear();
        self.dist[source] = 0;
        self.heap.push(Reverse((0, source as u32)));
        while let Some(Reverse((d, v))) = self.heap.pop() {
            let v = v as usize;
            if d > self.dist[v] {
                continue;
            }
            let (r, c) = (v / GRID, v % GRID);
            let up = (r > 0).then(|| v - GRID);
            let down = (r + 1 < GRID).then_some(v + GRID);
            let left = (c > 0).then(|| v - 1);
            let right = (c + 1 < GRID).then_some(v + 1);
            for u in [up, down, left, right].into_iter().flatten() {
                let nd = d + self.weights[u];
                if nd < self.dist[u] {
                    self.dist[u] = nd;
                    self.heap.push(Reverse((nd, u as u32)));
                }
            }
        }
        self.dist.iter().map(|&d| u64::from(d)).sum()
    }
}
