//! A fixed reference kernel that measures how fast the host runs right
//! now.
//!
//! The benchmark shares its machine with other tenants, and their load
//! changes the speed of the simulator by tens of percent over seconds to
//! minutes. The reference runs the same instructions on the same data
//! every time and belongs to the benchmark, so no change to the
//! simulator changes its cost; only the host does. It has two halves,
//! because the host slows both kinds of work: a strided walk over an
//! array larger than the per-core caches, which feels contention for
//! the shared cache and memory, and a small cloud-in-cell deposit that
//! stays in the core's own caches, which feels contention for the core.
//! It is sampled before every measured step, and the end-to-end host
//! metrics scale each pass to the speed the host had when the benchmark
//! was recorded.

use std::time::Instant;

/// Elements of the walked array: 64 MiB of `f64`.
const WALK_LEN: usize = 8 << 20;
/// Read-modify-write updates per sample.
const WALK_UPDATES: usize = WALK_LEN / 64;
/// Distance between consecutive updates, in elements: odd, so the walk
/// visits every element, and a 32 KiB jump, so each update touches a
/// new cache line.
const WALK_STRIDE: usize = 4099;

/// Cells per side of the deposit grid, and nodes per side with the one
/// guard layer CIC needs.
const CELLS: usize = 32;
const NODES: usize = CELLS + 1;
/// Pseudo-particles deposited per sample.
const PARTICLES: usize = 1 << 16;
/// Distance a pseudo-particle moves per sample, in cells.
const DRIFT: [f64; 3] = [0.37, 0.11, 0.23];

/// Median sample time, in ms, on the recording host described in
/// README.md. Host metrics are scaled to this speed.
pub const NOMINAL_MS: f64 = 4.8;

pub struct HostRef {
    walk: Vec<f64>,
    walk_pos: usize,
    /// Three current components on a `NODES`³ grid.
    grid: Vec<f64>,
    positions: Vec<[f64; 3]>,
}

impl HostRef {
    pub fn new() -> Self {
        let walk = (0..WALK_LEN).map(|i| (i % 977) as f64 * 1e-3).collect();
        // Fixed pseudo-random positions (xorshift64), the same every run.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut unit = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let positions = (0..PARTICLES)
            .map(|_| [0; 3].map(|_| unit() * CELLS as f64))
            .collect();
        Self {
            walk,
            walk_pos: 0,
            grid: vec![0.0; 3 * NODES * NODES * NODES],
            positions,
        }
    }

    /// Runs the reference once and returns its host time in ms.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        self.walk();
        self.deposit();
        1e3 * start.elapsed().as_secs_f64()
    }

    fn walk(&mut self) {
        let mask = WALK_LEN - 1;
        let mut j = self.walk_pos;
        for i in 0..WALK_UPDATES {
            j = (j + WALK_STRIDE) & mask;
            self.walk[j] = 0.5 * (self.walk[j] + self.walk[i]);
        }
        self.walk_pos = j;
        std::hint::black_box(&self.walk);
    }

    /// Deposits each pseudo-particle's three velocity components on the
    /// eight nodes around it, then moves it on periodically.
    fn deposit(&mut self) {
        let component = NODES * NODES * NODES;
        for p in &mut self.positions {
            // Positions stay in [0, CELLS), so the casts floor them.
            let cell = p.map(|x| x as usize);
            let frac = [0, 1, 2].map(|d| p[d] - cell[d] as f64);
            for corner in 0..8 {
                let side = [corner & 1, (corner >> 1) & 1, corner >> 2];
                let weight: f64 = (0..3)
                    .map(|d| if side[d] == 0 { 1.0 - frac[d] } else { frac[d] })
                    .product();
                let node =
                    ((cell[2] + side[2]) * NODES + cell[1] + side[1]) * NODES + cell[0] + side[0];
                for (c, v) in DRIFT.iter().enumerate() {
                    self.grid[c * component + node] += weight * v;
                }
            }
            for (x, v) in p.iter_mut().zip(DRIFT) {
                *x = (*x + v) % CELLS as f64;
            }
        }
        std::hint::black_box(&self.grid);
    }
}
