//! The deposition-kernel abstraction and the per-step driver.
//!
//! A [`DepositionKernel`] consumes one tile's staged particles and
//! produces current either directly on the grid (the WarpX-style baseline)
//! or into the tile's [`Rhocell`] accumulator (all rhocell/MPU kernels;
//! the driver then runs the common reduction). The [`Depositor`] driver
//! owns the sorting strategy, the address map and the orchestration of
//! Algorithm 1's phases, charging each to its [`Phase`] bucket.

use mpic_grid::{Array3, FieldArrays, GridGeometry, Tile, TileLayout};
use mpic_machine::{Exec, Machine, Phase, Price, VAddr};
use mpic_particles::{MoveStats, ParticleContainer, SortPolicy, SortStats};

use crate::common::{
    stage_tile, AddrMap, PrepStyle, Staging, TileCurrents, TileScratch, TouchedNodes,
};
use crate::rhocell::Rhocell;
use crate::shape::ShapeOrder;

/// Where a kernel writes its output for one tile.
pub enum TileOutput<'a> {
    /// Direct scatter onto per-worker private current accumulators (the
    /// cache model is still priced against the *global* array bases in
    /// `j_addr`, so the emulated cost is that of a true grid scatter).
    Grid {
        /// Current array bases for the cache model.
        j_addr: [VAddr; 3],
        /// The worker's private guarded current accumulators.
        jx: &'a mut Array3,
        /// The worker's private guarded current accumulators.
        jy: &'a mut Array3,
        /// The worker's private guarded current accumulators.
        jz: &'a mut Array3,
        /// Records every accumulator node the kernel writes, in
        /// first-touch order, so the driver can extract (and re-zero) the
        /// tile's sparse output deterministically.
        touched: &'a mut TouchedNodes,
    },
    /// Accumulation into the tile's rhocell (reduced by the driver).
    Rho {
        /// Rhocell base address.
        rho_addr: VAddr,
        /// The tile accumulator.
        rho: &'a mut Rhocell,
    },
}

/// Per-tile context handed to kernels.
pub struct TileCtx<'a> {
    /// Grid geometry.
    pub geom: &'a GridGeometry,
    /// The tile being deposited.
    pub tile: &'a Tile,
    /// Shape order in use.
    pub order: ShapeOrder,
    /// Whether the kernel should take its cell-run batched path:
    /// accumulate each same-cell particle run into a stack-resident
    /// stencil block and touch the tile accumulator once per run. Only
    /// set when the sorting strategy guarantees cell-grouped staging
    /// order (unsorted input falls back to the per-particle reference
    /// sweep — run batching cannot amortise length-1 runs).
    pub batched: bool,
    /// Whether the batched path's memory traffic is priced by the
    /// state-free streaming model ([`Price::Stream`]) instead of the
    /// cache walk ([`Price::Walk`]): the staging loads, the rhocell
    /// accumulate passes and the fused rhocell→grid reduction charge.
    /// Both batched modes run the same lane value path, so deposited
    /// values do not depend on this flag; only the memory-bound phase
    /// charges (Preprocess, Compute on rhocell kernels, Reduce) do. Only
    /// ever set together with `batched`. See `SimConfig::simd`.
    pub simd: bool,
}

impl TileCtx<'_> {
    /// The memory price of an access to an operand of byte span
    /// `footprint` in this tile's mode.
    pub fn price(&self, footprint: u64) -> Price {
        Price::stream_if(self.simd, footprint)
    }
}

/// A current-deposition kernel variant.
///
/// `Send + Sync` because the parallel tile pipeline shares one kernel
/// instance across worker threads; kernels are stateless configuration
/// structs, so this costs nothing.
pub trait DepositionKernel: Send + Sync {
    /// Human-readable configuration name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// How the staging loop is executed.
    fn prep_style(&self) -> PrepStyle;

    /// Whether the kernel writes through a rhocell accumulator
    /// (if false it scatters straight onto the grid).
    fn uses_rhocell(&self) -> bool;

    /// Deposits one tile's staged particles.
    fn deposit_tile(&self, m: &mut Machine, ctx: &TileCtx, st: &Staging, out: &mut TileOutput);
}

/// Sorting strategy wrapped around the kernel (orthogonal to the kernel
/// itself, matching the paper's `+IncrSort` / `GlobalSort` suffixes).
#[derive(Debug, Clone)]
pub enum SortStrategy {
    /// Particles stay in SoA order (baseline, `Hybrid-noSort`).
    None,
    /// Incremental GPMA maintenance each step; global re-sort governed by
    /// the adaptive policy.
    Incremental(SortPolicy),
    /// Full counting sort every timestep (`Hybrid-GlobalSort`).
    GlobalEveryStep,
}

impl SortStrategy {
    /// Whether kernels observe cell-sorted iteration order.
    pub fn provides_sorted_order(&self) -> bool {
        !matches!(self, SortStrategy::None)
    }
}

/// Sorting work performed in one step (for logs and tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct StepSortReport {
    /// GPMA stats merged across tiles.
    pub gpma: MoveStats,
    /// Particles scanned by the incremental sweep.
    pub scanned: usize,
    /// Counting-sort stats if a global sort ran.
    pub global: Option<SortStats>,
    /// Whether the adaptive policy requested the global sort.
    pub policy_triggered: bool,
}

/// The per-step deposition driver.
pub struct Depositor {
    kernel: Box<dyn DepositionKernel>,
    strategy: SortStrategy,
    addrs: Option<AddrMap>,
    rhocells: Vec<Rhocell>,
    order: ShapeOrder,
    /// Whether kernels run their cell-run batched hot path (see
    /// [`Depositor::set_batching`]).
    batching: bool,
    /// Whether the batched paths are priced by the streaming model (see
    /// [`Depositor::set_simd`]).
    simd: bool,
    /// Per-worker reusable tile buffers (index = worker id).
    scratch: Vec<TileScratch>,
    /// Per-tile sparse outputs of direct-scatter kernels (index = tile).
    tile_currents: Vec<TileCurrents>,
}

impl Depositor {
    /// Creates a driver for a kernel and sorting strategy.
    pub fn new(
        kernel: Box<dyn DepositionKernel>,
        strategy: SortStrategy,
        order: ShapeOrder,
    ) -> Self {
        Self {
            kernel,
            strategy,
            addrs: None,
            rhocells: Vec::new(),
            order,
            batching: false,
            simd: false,
            scratch: Vec::new(),
            tile_currents: Vec::new(),
        }
    }

    /// Kernel configuration name.
    pub fn name(&self) -> &'static str {
        self.kernel.name()
    }

    /// Selects the cell-run batched kernel paths (`SimConfig::batching`).
    ///
    /// Batching only engages when the sorting strategy provides
    /// cell-grouped iteration order; with an unsorted strategy the
    /// per-particle reference sweep runs regardless of this flag, so
    /// enabling batching on an unsorted configuration is a no-op rather
    /// than a correctness hazard.
    pub fn set_batching(&mut self, batching: bool) {
        self.batching = batching;
    }

    /// Whether the batched kernel paths are selected.
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// Selects streaming prices ([`Price::Stream`]) over cache-walk
    /// prices ([`Price::Walk`]) for the batched kernel paths
    /// (`SimConfig::simd`). Both batched modes run the same lane value
    /// path, so this flag changes only the emulated charges. ANDed with
    /// batching: `simd` without `batching` (or on an unsorted strategy)
    /// is a no-op, and the per-particle path stays the bitwise
    /// reference.
    pub fn set_simd(&mut self, simd: bool) {
        self.simd = simd;
    }

    /// Whether the batched paths are priced by the streaming model.
    pub fn simd(&self) -> bool {
        self.simd
    }

    /// Shape order in use.
    pub fn order(&self) -> ShapeOrder {
        self.order
    }

    /// The sorting strategy.
    pub fn strategy(&self) -> &SortStrategy {
        &self.strategy
    }

    /// The address map allocated by [`Depositor::prepare`], if any.
    ///
    /// The map pins the virtual addresses the cache model prices, so a
    /// checkpoint must capture it: restoring onto a rebuilt driver with
    /// a different map would shift every modelled address stream.
    pub fn addr_map(&self) -> Option<&AddrMap> {
        self.addrs.as_ref()
    }

    /// Reinstates an address map captured via [`Depositor::addr_map`]
    /// (checkpoint restore). The driver must already have been prepared
    /// on an identical configuration — only the addresses are replaced;
    /// rhocells and scratch pools are geometry-derived and keep their
    /// prepared state.
    pub fn restore_addr_map(&mut self, addrs: AddrMap) {
        self.addrs = Some(addrs);
    }

    /// One-time initialisation: allocates the address map, builds the
    /// rhocell accumulators and performs the initial global sort
    /// (Algorithm 1's `GlobalSortParticlesByCell`) when the strategy
    /// maintains sorted order.
    pub fn prepare(
        &mut self,
        m: &mut Machine,
        geom: &GridGeometry,
        layout: &TileLayout,
        container: &mut ParticleContainer,
    ) {
        let dims = geom.dims_with_guard();
        let grid_len = dims[0] * dims[1] * dims[2];
        let caps: Vec<usize> = container
            .tiles
            .iter()
            .map(|t| t.soa.slots().max(8))
            .collect();
        let rho_len = layout
            .iter()
            .map(|t| 3 * t.num_cells() * self.order.nodes_3d())
            .max()
            .unwrap_or(0);
        self.addrs = Some(AddrMap::new(m, grid_len, &caps, rho_len));
        self.rhocells = layout
            .iter()
            .map(|t| Rhocell::new(self.order, t.num_cells()))
            .collect();
        if self.strategy.provides_sorted_order() {
            let stats = container.global_sort(layout, geom);
            m.in_phase(Phase::Sort, |m| charge_global_sort(m, &stats));
            container.reset_counters();
        }
    }

    /// Runs the sorting phase for this step, returning the work report.
    /// `force_global` lets the caller's policy escalate to a global
    /// counting sort, sharded across the persistent worker pool (callers
    /// without a pool pass `WorkerPool::sequential()`). The particle
    /// order, the [`StepSortReport`] and the emulated [`Phase::Sort`]
    /// charge are identical for every worker count and scheduler policy:
    /// the sharded sort reproduces the sequential permutation exactly
    /// and the cost model is driven by the workload-shaped
    /// [`SortStats`], not by host threading.
    pub fn sort_step_parallel(
        &mut self,
        m: &mut Machine,
        geom: &GridGeometry,
        layout: &TileLayout,
        container: &mut ParticleContainer,
        force_global: bool,
        exec: Exec<'_>,
    ) -> StepSortReport {
        let mut report = StepSortReport::default();
        match &self.strategy {
            SortStrategy::None => {
                // Even the unsorted baseline redistributes particles to
                // their owning tiles every step (WarpX's `Redistribute`);
                // this is ownership maintenance, not sorting, so it is
                // charged to `Other` rather than the kernel's sort time.
                // SoA iteration order is untouched, so kernels still see
                // unsorted particles.
                let (stats, _) = container.incremental_sort(layout, geom);
                m.in_phase(Phase::Other, |m| charge_gpma(m, &stats));
            }
            SortStrategy::GlobalEveryStep => {
                let stats = container.global_sort_parallel(layout, geom, exec);
                m.in_phase(Phase::Sort, |m| charge_global_sort(m, &stats));
                report.global = Some(stats);
            }
            SortStrategy::Incremental(_) => {
                let addrs = self.addrs.as_ref().expect("prepare() not called");
                // The streaming mode prices this sweep — three
                // unit-stride position streams — by the state-free
                // streaming model like every other memory-bound phase;
                // the other modes walk the cache simulator.
                let stream = self.simd && self.batching;
                // Stream-touch the position arrays: the sweep reads x,y,z
                // of every particle (VPU-vectorised, Algorithm 1 line 13).
                m.in_phase(Phase::Sort, |m| {
                    for (t, tile) in container.tiles.iter().enumerate() {
                        let n = tile.soa.slots();
                        // Roofline footprint of one position array: the
                        // sweep spans the tile's whole slot range.
                        let price = Price::stream_if(stream, (n * 8) as u64);
                        let mut p = 0;
                        while p < n {
                            for d in 0..3 {
                                m.v_touch_load(addrs.soa[t][d].offset_f64(p), 8, price);
                            }
                            m.v_ops(4); // Cell compare + mask bookkeeping.
                            p += 8;
                        }
                    }
                });
                let (stats, scanned) = container.incremental_sort(layout, geom);
                m.in_phase(Phase::Sort, |m| charge_gpma(m, &stats));
                report.gpma = stats;
                report.scanned = scanned;
                if force_global {
                    let gstats = container.global_sort_parallel(layout, geom, exec);
                    m.in_phase(Phase::Sort, |m| charge_global_sort(m, &gstats));
                    report.global = Some(gstats);
                    report.policy_triggered = true;
                    container.reset_counters();
                }
            }
        }
        report
    }

    /// Runs staging, the kernel and (if applicable) the rhocell reduction
    /// for every tile, writing current onto `fields`. A parallel tile
    /// pipeline: shards tiles across the persistent worker pool for
    /// staging, the kernel sweep and the reduction *cost* charging, then
    /// applies every tile's output onto the grid sequentially in tile
    /// order.
    ///
    /// Each tile executes on a forked worker machine whose cache is
    /// flushed at the tile boundary — the model of one tile per core with
    /// a private, initially cold cache — and its counter deltas are
    /// drained per tile and merged back in tile order. Both the grid
    /// currents and the emulated per-phase cycle totals are therefore
    /// bit-identical for any worker count or scheduler policy (see
    /// `tests/parallel_determinism.rs`).
    ///
    /// Rhocell kernels (`uses_rhocell() == true`) accumulate into the
    /// tile's private rhocell; direct-scatter kernels accumulate into the
    /// worker's private dense current arrays, extracted per tile into a
    /// sparse [`TileCurrents`] in first-touch node order. Both outputs
    /// are pure functions of the tile, so the fixed-order apply pass
    /// makes the fields independent of how tiles were sharded.
    pub fn deposit_step_parallel(
        &mut self,
        m: &mut Machine,
        geom: &GridGeometry,
        layout: &TileLayout,
        container: &ParticleContainer,
        fields: &mut FieldArrays,
        exec: Exec<'_>,
    ) {
        fields.clear_currents();
        let addrs = self.addrs.as_ref().expect("prepare() not called");
        let sorted = self.strategy.provides_sorted_order();
        // Unsorted-input fallback: run batching needs cell-grouped
        // staging order, so the knob only engages on sorted strategies.
        let batched = self.batching && sorted;
        // SIMD only exists inside the batched sweeps; per-particle mode
        // ignores the knob entirely.
        let simd = self.simd && batched;
        let j_addr = [addrs.jx, addrs.jy, addrs.jz];
        let n_tiles = container.tiles.len();
        let workers = exec.workers().clamp(1, n_tiles.max(1));
        if self.scratch.len() < workers {
            self.scratch.resize_with(workers, TileScratch::default);
        }
        let order = self.order;
        let kernel: &dyn DepositionKernel = &*self.kernel;

        if kernel.uses_rhocell() {
            let counters = exec.run_counted(
                m,
                &mut self.rhocells,
                &mut self.scratch,
                |wm, t, rho, scratch| {
                    deposit_tile_worker(
                        wm, kernel, order, sorted, batched, simd, geom, layout, container, addrs,
                        j_addr, t, rho, scratch,
                    );
                },
            );
            // Fixed-order merges: tile-order counter absorption, then
            // tile-order grid application — both independent of sharding.
            for c in &counters {
                m.absorb_counters(c);
            }
            for (t, rho) in self.rhocells.iter().enumerate() {
                if container.tiles[t].is_empty() {
                    continue;
                }
                rho.apply_to_grid(
                    geom,
                    layout.tile(t),
                    &mut fields.jx,
                    &mut fields.jy,
                    &mut fields.jz,
                );
            }
        } else {
            // Direct-scatter path: same per-tile worker model, with the
            // scatter stream landing in per-worker private accumulators.
            if self.tile_currents.len() < n_tiles {
                self.tile_currents
                    .resize_with(n_tiles, TileCurrents::default);
            }
            let counters = exec.run_counted(
                m,
                &mut self.tile_currents[..n_tiles],
                &mut self.scratch,
                |wm, t, tj, scratch| {
                    scatter_tile_worker(
                        wm, kernel, order, sorted, batched, simd, geom, layout, container, addrs,
                        j_addr, t, tj, scratch,
                    );
                },
            );
            for c in &counters {
                m.absorb_counters(c);
            }
            for tj in &self.tile_currents[..n_tiles] {
                tj.apply_to_grid(&mut fields.jx, &mut fields.jy, &mut fields.jz);
            }
        }
    }
}

/// Stages one tile into the worker's pooled buffers: collects the
/// iteration order (GPMA-sorted or raw live slots) and runs the charged
/// preprocessing sweep.
fn stage_tile_scratch(
    wm: &mut Machine,
    order: ShapeOrder,
    sorted: bool,
    simd: bool,
    geom: &GridGeometry,
    tile: &Tile,
    container: &ParticleContainer,
    addrs: &AddrMap,
    t: usize,
    kernel: &dyn DepositionKernel,
    scratch: &mut TileScratch,
) {
    let ptile = &container.tiles[t];
    scratch.iteration.clear();
    if sorted {
        scratch
            .iteration
            .extend(ptile.gpma.iter_sorted().map(|(_, p)| p));
    } else {
        scratch.iteration.extend(ptile.soa.live_indices());
    }
    stage_tile(
        wm,
        geom,
        tile,
        order,
        container.charge,
        &ptile.soa,
        &scratch.iteration,
        &addrs.soa[t],
        kernel.prep_style(),
        simd,
        &mut scratch.staging,
    );
}

/// Processes one tile end-to-end on a worker: per-tile cold cache, then
/// staging, the kernel sweep into the tile's private rhocell, and the
/// reduction cost charge. Grid values are *not* written here — the
/// orchestrator applies rhocells in tile order afterwards.
fn deposit_tile_worker(
    wm: &mut Machine,
    kernel: &dyn DepositionKernel,
    order: ShapeOrder,
    sorted: bool,
    batched: bool,
    simd: bool,
    geom: &GridGeometry,
    layout: &TileLayout,
    container: &ParticleContainer,
    addrs: &AddrMap,
    j_addr: [VAddr; 3],
    t: usize,
    rho: &mut Rhocell,
    scratch: &mut TileScratch,
) {
    if container.tiles[t].is_empty() {
        return;
    }
    wm.mem().flush_cache();
    let tile = layout.tile(t);
    stage_tile_scratch(
        wm, order, sorted, simd, geom, tile, container, addrs, t, kernel, scratch,
    );
    let ctx = TileCtx {
        geom,
        tile,
        order,
        batched,
        simd,
    };
    rho.clear();
    {
        let mut out = TileOutput::Rho {
            rho_addr: addrs.rhocell[t],
            rho: &mut *rho,
        };
        kernel.deposit_tile(wm, &ctx, &scratch.staging, &mut out);
    }
    // The streaming mode folds all three components per cell in one
    // fused traversal; the cache-walk modes sweep per component. Same functional
    // result (values are applied in `apply_to_grid` either way) — only
    // the Reduce-phase charge differs.
    if simd {
        rho.charge_reduction_fused(wm, geom, tile, addrs.rhocell[t], j_addr);
    } else {
        rho.charge_reduction(wm, geom, tile, addrs.rhocell[t], j_addr);
    }
}

/// Processes one tile end-to-end on a worker for a direct-scatter
/// kernel: per-tile cold cache, staging, then the kernel's scatter sweep
/// into the worker's private dense accumulators. The touched nodes are
/// extracted into the tile's sparse [`TileCurrents`] (first-touch order)
/// and the accumulators re-zeroed, leaving the output a pure function of
/// the tile. Grid values are *not* written here — the orchestrator
/// applies tile outputs in tile order afterwards.
fn scatter_tile_worker(
    wm: &mut Machine,
    kernel: &dyn DepositionKernel,
    order: ShapeOrder,
    sorted: bool,
    batched: bool,
    simd: bool,
    geom: &GridGeometry,
    layout: &TileLayout,
    container: &ParticleContainer,
    addrs: &AddrMap,
    j_addr: [VAddr; 3],
    t: usize,
    tj: &mut TileCurrents,
    scratch: &mut TileScratch,
) {
    tj.clear();
    if container.tiles[t].is_empty() {
        return;
    }
    wm.mem().flush_cache();
    let tile = layout.tile(t);
    stage_tile_scratch(
        wm, order, sorted, simd, geom, tile, container, addrs, t, kernel, scratch,
    );
    let ctx = TileCtx {
        geom,
        tile,
        order,
        batched,
        simd,
    };
    let dims = geom.dims_with_guard();
    // Disjoint field borrows: the kernel reads `staging` while writing
    // the accumulators and the touched tracker.
    let TileScratch {
        staging,
        accum,
        touched,
        ..
    } = scratch;
    if accum.as_ref().is_none_or(|a| a[0].shape() != dims) {
        *accum = Some(std::array::from_fn(|_| {
            mpic_grid::Array3::zeros(dims[0], dims[1], dims[2])
        }));
    }
    let [jx, jy, jz] = accum.as_mut().unwrap();
    touched.reset(jx.len());
    {
        let mut out = TileOutput::Grid {
            j_addr,
            jx,
            jy,
            jz,
            touched,
        };
        kernel.deposit_tile(wm, &ctx, &*staging, &mut out);
    }
    // Dense -> sparse extraction; re-zeroing only the touched nodes keeps
    // the accumulators clean for the worker's next tile.
    for &i in &touched.idx {
        tj.idx.push(i);
        for (comp, arr) in [&mut *jx, &mut *jy, &mut *jz].into_iter().enumerate() {
            let slot = &mut arr.as_mut_slice()[i];
            tj.j[comp].push(*slot);
            *slot = 0.0;
        }
    }
}

/// Charges the cost of a global counting sort.
///
/// A counting sort's permutation pass gathers every attribute from a
/// *random* source slot (the pre-sort order) and streams it to the
/// destination: the gathers dominate, costing roughly a quarter of the
/// random-access DRAM latency each under memory-level parallelism. This
/// is what makes `Hybrid-GlobalSort` (a full sort every step) lose to
/// the incremental sorter at scale — Figure 10's central observation.
fn charge_global_sort(m: &mut Machine, stats: &SortStats) {
    let n = stats.n as f64;
    // Histogram + prefix sum + permutation index pass.
    m.s_ops(op_count(6.0 * n));
    // 7 attribute arrays re-gathered (random read) + streamed out.
    let rand_read = m.cfg().dram_cy * 0.25;
    let stream_write = m.cfg().dram_cy * 0.15 / 8.0;
    m.charge(n * 7.0 * (rand_read + stream_write + 0.25));
    m.v_ops(op_count(7.0 * n / 8.0));
}

/// Float-derived operation count as a `usize`, with the domain pinned
/// before the conversion (mpic-lint L5: a bare expression-position cast
/// truncates NaN to zero and saturates overflow, both silently).
#[inline]
fn op_count(x: f64) -> usize {
    debug_assert!(
        x.is_finite() && (0.0..=u32::MAX as f64).contains(&x),
        "op count {x} outside the convertible domain"
    );
    x as usize
}

/// Charges the GPMA maintenance work reported by the sweep.
fn charge_gpma(m: &mut Machine, s: &MoveStats) {
    // Queue handling + index updates: ~8 scalar ops per applied move.
    m.s_ops(8 * s.moves_applied);
    // Deletions and O(1) inserts are a handful of ops each.
    m.s_ops(4 * (s.deletions + s.insertions));
    // Borrow shifts relocate one index entry each.
    m.s_ops(6 * s.borrow_shifts + s.bins_scanned);
    // Rebuilds re-lay-out every particle of the tile.
    m.s_ops(4 * s.rebuild_particles);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_sorted_order() {
        assert!(!SortStrategy::None.provides_sorted_order());
        assert!(SortStrategy::GlobalEveryStep.provides_sorted_order());
        assert!(SortStrategy::Incremental(SortPolicy::default()).provides_sorted_order());
    }
}
