//! Species-level particle container: one SoA + GPMA per tile, plus the
//! operations Algorithm 1 performs on them (global counting sort,
//! per-step incremental sweep, cross-tile migration).

use crate::gpma::{Gpma, GpmaState, MoveStats, INVALID_PARTICLE_ID};
use crate::soa::ParticleSoA;
use crate::sort::{counting_sort_keys_sharded, SortScratch, SortStats};
use mpic_grid::{GridGeometry, Tile, TileLayout};
use mpic_machine::{Exec, SchedulerPolicy, WorkerPool};

/// Default fractional gap headroom used when (re)building tile GPMAs.
pub const DEFAULT_GAP_RATIO: f64 = 0.5;

/// One tile's particles: SoA data plus the GPMA index over it.
#[derive(Debug, Clone)]
pub struct ParticleTile {
    /// Particle data (slots may be dead between global sorts).
    pub soa: ParticleSoA,
    /// The gapped index keeping slots binned by tile-local cell.
    pub gpma: Gpma,
    /// Authoritative bin per SoA slot (`INVALID_PARTICLE_ID` for dead).
    pub cells: Vec<usize>,
}

/// A particle that left its tile during the incremental sweep and must be
/// re-homed (the paper treats these as remove + insert pairs).
#[derive(Debug, Clone, Copy)]
pub struct Departure {
    /// Position (m).
    pub x: f64,
    /// Position (m).
    pub y: f64,
    /// Position (m).
    pub z: f64,
    /// Normalised momentum.
    pub ux: f64,
    /// Normalised momentum.
    pub uy: f64,
    /// Normalised momentum.
    pub uz: f64,
    /// Macro-particle weight.
    pub w: f64,
}

impl ParticleTile {
    /// Creates an empty tile with `n_bins` cells.
    pub fn empty(n_bins: usize, gap_ratio: f64) -> Self {
        Self {
            soa: ParticleSoA::new(),
            gpma: Gpma::build(&[], n_bins, gap_ratio),
            cells: Vec::new(),
        }
    }

    /// Reassembles a tile from checkpointed parts, refusing one whose bin
    /// map disagrees with its SoA (one entry per slot, a bin exactly on
    /// the live ones) or with its GPMA (see [`Gpma::validate`]).
    pub fn from_parts(
        soa: ParticleSoA,
        gpma: GpmaState,
        cells: Vec<usize>,
    ) -> Result<Self, &'static str> {
        if cells.len() != soa.slots() {
            return Err("tile: bin map length disagrees with the SoA");
        }
        if cells
            .iter()
            .zip(&soa.alive)
            .any(|(&c, &alive)| alive != (c != INVALID_PARTICLE_ID))
        {
            return Err("tile: bin map disagrees with the SoA's live slots");
        }
        let gpma = Gpma::from_state(gpma, &cells)?;
        Ok(Self { soa, gpma, cells })
    }

    /// Number of live particles in the tile.
    pub fn len(&self) -> usize {
        self.gpma.num_particles()
    }

    /// Whether the tile holds no live particles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Recomputes every live particle's bin from its position and rebuilds
    /// both the SoA (compacted, cell-ordered) and the GPMA — the paper's
    /// `GlobalSortParticlesByCell` restricted to one tile. All gather and
    /// histogram buffers come from `scratch`, so a warm scratch makes the
    /// sort itself allocation-free (the GPMA rebuild still allocates, but
    /// global sorts are rare policy events rather than per-step work).
    ///
    /// `exec` shards the counting-sort histogram and the attribute
    /// permutation across the persistent worker pool; the resulting SoA
    /// order, bin map and [`SortStats`] are identical for any worker
    /// count or scheduler policy (see `counting_sort_keys_sharded`).
    pub fn global_sort(
        &mut self,
        tile: &Tile,
        geom: &GridGeometry,
        gap_ratio: f64,
        scratch: &mut SortScratch,
        exec: Exec<'_>,
    ) -> SortStats {
        let n_bins = tile.num_cells();
        // Gather live slots and their bins.
        scratch.live.clear();
        scratch.keys.clear();
        for i in self.soa.live_indices() {
            let (cell, _) = geom.locate(self.soa.x[i], self.soa.y[i], self.soa.z[i]);
            let cell = geom.wrap_cell(cell);
            debug_assert!(tile.contains(cell), "particle escaped its tile");
            scratch.live.push(i);
            scratch.keys.push(tile.local_cell_id(cell));
        }
        let keys = std::mem::take(&mut scratch.keys);
        let mut perm = std::mem::take(&mut scratch.perm);
        let stats = counting_sort_keys_sharded(&keys, n_bins, exec, &mut perm, scratch);
        scratch.keys = keys;
        scratch.perm = perm;
        // Compose: new slot s holds old slot live[perm[s]].
        scratch.gathered.clear();
        scratch
            .gathered
            .extend(scratch.perm.iter().map(|&p| scratch.live[p]));
        self.soa
            .permute_sharded(&scratch.gathered, &mut scratch.attr_bufs, exec);
        self.cells.clear();
        self.cells
            .extend(scratch.perm.iter().map(|&p| scratch.keys[p]));
        self.gpma = Gpma::build(&self.cells, n_bins, gap_ratio);
        stats
    }

    /// Phase 1 of Algorithm 1: scans particles in sorted order, queues
    /// moved particles, extracts tile-leavers, then applies pending moves.
    /// The scan snapshot comes from `scratch.scan` and tile-leavers are
    /// appended to `scratch.departures`, so a warm scratch keeps the
    /// per-step sweep allocation-free.
    ///
    /// Returns the GPMA operation stats and the number of particles
    /// scanned.
    pub fn incremental_sort_sweep(
        &mut self,
        tile: &Tile,
        geom: &GridGeometry,
        scratch: &mut SortScratch,
    ) -> (MoveStats, usize) {
        scratch.scan.clear();
        scratch.scan.extend(self.gpma.iter_sorted());
        let scanned = scratch.scan.len();
        for &(old_bin, p) in &scratch.scan {
            let (cell, _) = geom.locate(self.soa.x[p], self.soa.y[p], self.soa.z[p]);
            let cell = geom.wrap_cell(cell);
            if tile.contains(cell) {
                let new_bin = tile.local_cell_id(cell);
                if new_bin != old_bin {
                    self.gpma.queue_move(p, old_bin, new_bin);
                    self.cells[p] = new_bin;
                }
            } else {
                let (x, y, z, ux, uy, uz, w) = self.soa.get(p);
                scratch.departures.push(Departure {
                    x,
                    y,
                    z,
                    ux,
                    uy,
                    uz,
                    w,
                });
                self.gpma.queue_remove(p, old_bin);
                self.cells[p] = INVALID_PARTICLE_ID;
                self.soa.remove(p);
            }
        }
        let stats = self.gpma.apply_pending_moves(&self.cells);
        (stats, scanned)
    }

    /// Removes the particles in SoA slots `slots` (those a push or a
    /// moving-window shift found leaving the domain) from the SoA, the
    /// bin map and the GPMA.
    pub fn remove_slots(&mut self, slots: &[usize]) {
        for &p in slots {
            self.gpma.queue_remove(p, self.cells[p]);
            self.cells[p] = INVALID_PARTICLE_ID;
            self.soa.remove(p);
        }
        if !slots.is_empty() {
            let _ = self.gpma.apply_pending_moves(&self.cells);
        }
    }

    /// Inserts one particle (injection or cross-tile arrival).
    pub fn insert(&mut self, d: Departure, tile: &Tile, geom: &GridGeometry) -> MoveStats {
        let (cell, _) = geom.locate(d.x, d.y, d.z);
        let cell = geom.wrap_cell(cell);
        debug_assert!(tile.contains(cell), "insert routed to wrong tile");
        let bin = tile.local_cell_id(cell);
        let p = self.soa.push(d.x, d.y, d.z, d.ux, d.uy, d.uz, d.w);
        if p >= self.cells.len() {
            self.cells.resize(p + 1, INVALID_PARTICLE_ID);
        }
        self.cells[p] = bin;
        self.gpma.queue_insert(p, bin);
        self.gpma.apply_pending_moves(&self.cells)
    }

    /// Validates GPMA invariants against the authoritative bins.
    pub fn check_invariants(&self) {
        self.gpma.check_invariants(&self.cells);
    }
}

/// All tiles of one species plus its charge/mass.
#[derive(Debug, Clone)]
pub struct ParticleContainer {
    /// Species charge (C); negative for electrons.
    pub charge: f64,
    /// Species mass (kg).
    pub mass: f64,
    /// Per-tile storage, indexed like `TileLayout`.
    pub tiles: Vec<ParticleTile>,
    gap_ratio: f64,
    /// Pooled buffers for the sequential sort paths (sweep snapshots,
    /// counting-sort histograms, permutation gathers).
    scratch: SortScratch,
}

impl ParticleContainer {
    /// Creates an empty container matching `layout`.
    pub fn new(layout: &TileLayout, charge: f64, mass: f64) -> Self {
        let tiles = layout
            .iter()
            .map(|t| ParticleTile::empty(t.num_cells(), DEFAULT_GAP_RATIO))
            .collect();
        Self {
            charge,
            mass,
            tiles,
            gap_ratio: DEFAULT_GAP_RATIO,
            scratch: SortScratch::default(),
        }
    }

    /// Gap headroom used on rebuilds.
    pub fn gap_ratio(&self) -> f64 {
        self.gap_ratio
    }

    /// Overrides the gap headroom (GPMA ablation benches).
    pub fn set_gap_ratio(&mut self, r: f64) {
        assert!(r >= 0.0);
        self.gap_ratio = r;
    }

    /// Total live particles.
    pub fn total_particles(&self) -> usize {
        self.tiles.iter().map(|t| t.len()).sum()
    }

    /// Injects a particle, routing it to the owning tile.
    pub fn inject(&mut self, layout: &TileLayout, geom: &GridGeometry, d: Departure) -> MoveStats {
        let (cell, _) = geom.locate(d.x, d.y, d.z);
        let cell = geom.wrap_cell(cell);
        let t = layout.tile_of_cell(cell);
        self.tiles[t].insert(d, layout.tile(t), geom)
    }

    /// Global sort of every tile; returns merged stats. Single-worker
    /// convenience wrapper around
    /// [`ParticleContainer::global_sort_parallel`].
    pub fn global_sort(&mut self, layout: &TileLayout, geom: &GridGeometry) -> SortStats {
        let pool = WorkerPool::sequential();
        self.global_sort_parallel(layout, geom, pool.exec(SchedulerPolicy::Static))
    }

    /// Global sort of every tile with the per-tile counting sort and
    /// attribute permutation sharded across the persistent worker pool;
    /// the resulting particle order and merged stats are identical for
    /// any worker count or scheduler policy (tiles are visited in tile
    /// order, and the sharded sort reproduces the sequential permutation
    /// exactly).
    ///
    /// Particles that crossed a tile boundary since the last maintenance
    /// pass are re-homed first (tile-local counting sort requires every
    /// particle to be inside its tile).
    pub fn global_sort_parallel(
        &mut self,
        layout: &TileLayout,
        geom: &GridGeometry,
        exec: Exec<'_>,
    ) -> SortStats {
        let _ = self.incremental_sort(layout, geom);
        let mut total = SortStats::default();
        let gap_ratio = self.gap_ratio;
        let Self { tiles, scratch, .. } = self;
        for (t, tile) in tiles.iter_mut().enumerate() {
            let s = tile.global_sort(layout.tile(t), geom, gap_ratio, scratch, exec);
            total.n += s.n;
            total.buckets += s.buckets;
            total.moves += s.moves;
        }
        total
    }

    /// Incremental sweep of every tile followed by re-homing of
    /// departures. Returns merged GPMA stats and particles scanned.
    pub fn incremental_sort(
        &mut self,
        layout: &TileLayout,
        geom: &GridGeometry,
    ) -> (MoveStats, usize) {
        let mut stats = MoveStats::default();
        let mut scanned = 0;
        self.scratch.departures.clear();
        for (t, tile) in self.tiles.iter_mut().enumerate() {
            let (s, n) = tile.incremental_sort_sweep(layout.tile(t), geom, &mut self.scratch);
            stats.merge(&s);
            scanned += n;
        }
        // Re-home tile-leavers; take the buffer so `inject` can borrow
        // `self` (its capacity is restored afterwards).
        let mut departures = std::mem::take(&mut self.scratch.departures);
        for d in departures.drain(..) {
            let s = self.inject(layout, geom, d);
            stats.merge(&s);
        }
        self.scratch.departures = departures;
        (stats, scanned)
    }

    /// Aggregate empty-slot ratio across tiles (policy trigger 4).
    pub fn empty_ratio(&self) -> f64 {
        let cap: usize = self.tiles.iter().map(|t| t.gpma.capacity()).sum();
        if cap == 0 {
            return 0.0;
        }
        let free: usize = self.tiles.iter().map(|t| t.gpma.num_empty_slots()).sum();
        free as f64 / cap as f64
    }

    /// Aggregate local-rebuild count since the last reset (trigger 3).
    pub fn rebuilds_accum(&self) -> u64 {
        self.tiles.iter().map(|t| t.gpma.rebuild_count()).sum()
    }

    /// Resets per-tile rebuild counters (after a global sort).
    pub fn reset_counters(&mut self) {
        for t in &mut self.tiles {
            t.gpma.reset_counters();
        }
    }

    /// Validates all tile invariants (test helper).
    pub fn check_invariants(&self) {
        for t in &self.tiles {
            t.check_invariants();
        }
    }

    /// Total charge carried (sum of weights x species charge).
    pub fn total_charge(&self) -> f64 {
        self.charge * self.tiles.iter().map(|t| t.soa.total_weight()).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GridGeometry, TileLayout, ParticleContainer) {
        let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1.0; 3], 1);
        let layout = TileLayout::new(&geom, [4, 4, 4]);
        let c = ParticleContainer::new(&layout, -1.0, 1.0);
        (geom, layout, c)
    }

    fn particle_at(x: f64, y: f64, z: f64) -> Departure {
        Departure {
            x,
            y,
            z,
            ux: 0.0,
            uy: 0.0,
            uz: 0.0,
            w: 1.0,
        }
    }

    #[test]
    fn inject_routes_to_owning_tile() {
        let (geom, layout, mut c) = setup();
        let _ = c.inject(&layout, &geom, particle_at(0.5, 0.5, 0.5));
        let _ = c.inject(&layout, &geom, particle_at(6.5, 6.5, 6.5));
        assert_eq!(c.tiles[0].len(), 1);
        assert_eq!(c.tiles[7].len(), 1);
        assert_eq!(c.total_particles(), 2);
        c.check_invariants();
    }

    #[test]
    fn global_sort_orders_by_cell() {
        let (geom, layout, mut c) = setup();
        // Insert in reverse cell order within tile 0.
        let _ = c.inject(&layout, &geom, particle_at(3.5, 3.5, 3.5));
        let _ = c.inject(&layout, &geom, particle_at(0.5, 0.5, 0.5));
        let _ = c.global_sort(&layout, &geom);
        c.check_invariants();
        let t = &c.tiles[0];
        // After sorting, SoA slot 0 must be the cell-(0,0,0) particle.
        assert_eq!(t.soa.x[0], 0.5);
        assert_eq!(t.soa.x[1], 3.5);
    }

    #[test]
    fn incremental_sort_moves_within_tile() {
        let (geom, layout, mut c) = setup();
        let _ = c.inject(&layout, &geom, particle_at(0.5, 0.5, 0.5));
        // Move particle into neighbouring cell (1,0,0), same tile.
        c.tiles[0].soa.x[0] = 1.5;
        let (stats, scanned) = c.incremental_sort(&layout, &geom);
        assert_eq!(scanned, 1);
        assert_eq!(stats.moves_applied, 1);
        c.check_invariants();
        assert_eq!(c.tiles[0].gpma.bin_len(0), 0);
        assert_eq!(c.tiles[0].gpma.bin_len(1), 1);
    }

    #[test]
    fn incremental_sort_migrates_across_tiles() {
        let (geom, layout, mut c) = setup();
        let _ = c.inject(&layout, &geom, particle_at(3.5, 0.5, 0.5));
        // Cross the tile boundary in x.
        c.tiles[0].soa.x[0] = 4.5;
        let (_, _) = c.incremental_sort(&layout, &geom);
        c.check_invariants();
        assert_eq!(c.tiles[0].len(), 0);
        assert_eq!(c.tiles[1].len(), 1);
        assert_eq!(c.total_particles(), 1);
    }

    #[test]
    fn stationary_particles_cost_nothing_to_move() {
        let (geom, layout, mut c) = setup();
        for i in 0..10 {
            let _ = c.inject(&layout, &geom, particle_at(0.1 + 0.05 * i as f64, 0.5, 0.5));
        }
        let (stats, scanned) = c.incremental_sort(&layout, &geom);
        assert_eq!(scanned, 10);
        assert_eq!(stats.moves_applied, 0, "no particle changed cell");
        assert_eq!(stats.deletions, 0);
        c.check_invariants();
    }

    #[test]
    fn global_sort_parallel_is_worker_count_invariant() {
        let build = || {
            let (geom, layout, mut c) = setup();
            // Scatter particles over cells in a worst-case reverse order.
            for i in 0..40 {
                let f = 7.5 - (i as f64) * 0.19;
                let _ = c.inject(
                    &layout,
                    &geom,
                    particle_at(f, 7.9 - f, 0.5 + 0.17 * i as f64),
                );
            }
            (geom, layout, c)
        };
        let (geom, layout, mut want) = build();
        let _ = want.global_sort(&layout, &geom);
        for workers in [2usize, 3, 7] {
            let pool = WorkerPool::new(workers);
            for policy in [SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
                let (geom2, layout2, mut got) = build();
                let s = got.global_sort_parallel(&layout2, &geom2, pool.exec(policy));
                assert_eq!(s.n, 40);
                got.check_invariants();
                for (tw, tg) in want.tiles.iter().zip(&got.tiles) {
                    assert_eq!(tw.soa.x, tg.soa.x, "workers {workers} {policy:?}");
                    assert_eq!(tw.soa.w, tg.soa.w, "workers {workers} {policy:?}");
                    assert_eq!(tw.cells, tg.cells, "workers {workers} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn total_charge_scales_with_weights() {
        let (geom, layout, mut c) = setup();
        let mut p = particle_at(0.5, 0.5, 0.5);
        p.w = 3.0;
        let _ = c.inject(&layout, &geom, p);
        assert_eq!(c.total_charge(), -3.0);
    }

    #[test]
    fn periodic_wrap_keeps_particles_homed() {
        let (geom, layout, mut c) = setup();
        let _ = c.inject(&layout, &geom, particle_at(0.5, 0.5, 0.5));
        // Move past the periodic boundary: x = -0.5 wraps to 7.5 (tile 1).
        c.tiles[0].soa.x[0] = -0.5;
        let _ = c.incremental_sort(&layout, &geom);
        c.check_invariants();
        assert_eq!(c.total_particles(), 1);
        assert_eq!(c.tiles[1].len(), 1, "wrapped into the high-x tile");
    }
}
