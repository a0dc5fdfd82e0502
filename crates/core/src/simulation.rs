//! The PIC simulation orchestrator: Algorithm 1 embedded in the standard
//! gather -> push -> sort -> deposit -> field-solve loop.

use std::borrow::Cow;

use mpic_deposit::{canonical_flops_per_particle, AddrMap, Depositor, ShapeOrder, SortStrategy};
use mpic_grid::constants::C;
use mpic_grid::{Array3, FieldArrays, GridGeometry, TileLayout};
use mpic_machine::{
    vect::W, CacheSimState, CacheStats, Lanes, Machine, PerfCounters, Phase, VAddr, WorkerPool,
};
use mpic_particles::{Departure, ParticleContainer, ParticleTile, RankSortStats};
use mpic_push::boris::{boris_push, boris_push_lanes, charge_push, BorisCoeffs};
use mpic_push::gather::{
    charge_gather, charge_gather_run, charge_gather_run_reuse, gather_fields_with_cell,
    gather_from_block_lanes_masked, load_node_block, GatherCost, NodeBlock, MAX_STENCIL_NODES,
};
use mpic_push::PushScratch;
use mpic_solver::{BoundaryKind, MaxwellSolver, SolverKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::snapshot::{codec_struct, section, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::timings::{RunReport, StepTimings};

/// Plasma parameters used when the moving window injects fresh particles
/// at the leading edge.
#[derive(Debug, Clone, Copy)]
pub struct PlasmaSpec {
    /// Electron number density (per m^3).
    pub density: f64,
    /// Particles per cell.
    pub ppc: usize,
    /// Thermal momentum spread (normalised u).
    pub u_th: f64,
}

/// A complete single-rank PIC simulation.
pub struct Simulation {
    /// Configuration the simulation was built from.
    pub cfg: SimConfig,
    /// Grid geometry.
    pub geom: GridGeometry,
    /// Tile decomposition.
    pub layout: TileLayout,
    /// Electromagnetic field state.
    pub fields: FieldArrays,
    /// The electron species.
    pub electrons: ParticleContainer,
    /// The emulated machine accumulating all costs.
    pub machine: Machine,
    solver: MaxwellSolver,
    depositor: Depositor,
    sort_stats: RankSortStats,
    pending_global_sort: bool,
    window_plasma: Option<PlasmaSpec>,
    window_accum: f64,
    boris: BorisCoeffs,
    dt: f64,
    time: f64,
    step_index: u64,
    field_addrs: [VAddr; 6],
    rng: StdRng,
    report: RunReport,
    /// Per-worker reusable gather/push buffers (index = worker id).
    push_scratch: Vec<PushScratch>,
    /// Per-tile departure buckets reused by every moving-window
    /// injection (index = tile id; capacity retained across advances so
    /// the recurring LWFA injection path stays allocation-free).
    window_buckets: Vec<Vec<Departure>>,
    /// The persistent execution pool every sharded phase dispatches to:
    /// threads are spawned once (sized by `cfg.num_workers`, rebuilt
    /// lazily if that changes between steps) and parked between phases
    /// and steps, replacing the per-phase `thread::scope` spawns the
    /// pipeline used to pay ~6x per step.
    pool: WorkerPool,
}

impl Simulation {
    /// Builds a simulation with an already-populated container.
    pub fn from_parts(
        cfg: SimConfig,
        geom: GridGeometry,
        layout: TileLayout,
        mut electrons: ParticleContainer,
        window_plasma: Option<PlasmaSpec>,
    ) -> Self {
        let mut machine = Machine::new(cfg.machine.clone());
        let fields = FieldArrays::new(&geom);
        let solver = MaxwellSolver::new(cfg.solver, &geom);
        let dt = cfg.cfl * solver.max_dt(&geom);
        let mut depositor = cfg.kernel.build(cfg.shape);
        depositor.prepare(&mut machine, &geom, &layout, &mut electrons);
        let dims = geom.dims_with_guard();
        let len = dims[0] * dims[1] * dims[2];
        let field_addrs = std::array::from_fn(|_| machine.mem().alloc_f64(len));
        let boris = BorisCoeffs::new(electrons.charge, electrons.mass, dt);
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xabcd_ef01);
        let pool = WorkerPool::new(cfg.num_workers.max(1));
        Self {
            cfg,
            geom,
            layout,
            fields,
            electrons,
            machine,
            solver,
            depositor,
            sort_stats: RankSortStats::default(),
            pending_global_sort: false,
            window_plasma,
            window_accum: 0.0,
            boris,
            dt,
            time: 0.0,
            step_index: 0,
            field_addrs,
            rng,
            report: RunReport::default(),
            push_scratch: Vec::new(),
            window_buckets: Vec::new(),
            pool,
        }
    }

    /// The persistent execution pool: exposed for health checks and for
    /// the fault-injection test hook
    /// ([`mpic_machine::WorkerPool::inject_fault`]). Note the pool is
    /// rebuilt at the top of the next step if `cfg.num_workers` changed,
    /// which discards any pending fault plan — arm faults only after at
    /// least one step under the final worker count.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Respawns any dead pool worker threads (after a caught
    /// [`mpic_machine::ExecError`]); returns how many were replaced.
    /// Part of the recovery path driven by [`crate::ResilientDriver`].
    pub fn repair_workers(&mut self) -> usize {
        self.pool.respawn_dead()
    }

    /// Rebuilds the persistent pool if `cfg.num_workers` changed since
    /// the last step (tests and probes retarget the worker count between
    /// steps); otherwise the parked threads are reused as-is. Call once
    /// at the top of `step`, then borrow `self.pool.exec(...)` per
    /// phase.
    fn sync_pool(&mut self) {
        let workers = self.cfg.num_workers.max(1);
        if self.pool.workers() != workers {
            self.pool = WorkerPool::new(workers);
        }
    }

    /// Timestep (s).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Simulated physical time (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps taken.
    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// The timing report accumulated so far.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Deposition driver name (kernel configuration).
    pub fn kernel_name(&self) -> &'static str {
        self.depositor.name()
    }

    /// Live particle count.
    pub fn num_particles(&self) -> usize {
        self.electrons.total_particles()
    }

    /// Requests a global re-sort at the start of the next step (the same
    /// escalation path the adaptive policy uses). Only meaningful for
    /// [`SortStrategy::Incremental`] configurations.
    pub fn request_global_sort(&mut self) {
        self.pending_global_sort = true;
    }

    /// Whether a global sort is pending for the next step.
    pub fn global_sort_pending(&self) -> bool {
        self.pending_global_sort
    }

    /// The adaptive-policy counters as of the end of the last step
    /// (diagnostics and tests).
    pub fn sort_stats(&self) -> &RankSortStats {
        &self.sort_stats
    }

    /// Total kinetic energy (J).
    pub fn kinetic_energy(&self) -> f64 {
        let mc2 = self.electrons.mass * C * C;
        let mut e = 0.0;
        for t in &self.electrons.tiles {
            for p in t.soa.live_indices() {
                let (ux, uy, uz) = (t.soa.ux[p], t.soa.uy[p], t.soa.uz[p]);
                let gamma = (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
                e += t.soa.w[p] * mc2 * (gamma - 1.0);
            }
        }
        e
    }

    /// Total field energy (J).
    pub fn field_energy(&self) -> f64 {
        self.fields.field_energy(&self.geom)
    }

    /// Total charge (C).
    pub fn total_charge(&self) -> f64 {
        self.electrons.total_charge()
    }

    /// Advances the simulation one step, returning the step's timings.
    pub fn step(&mut self) -> StepTimings {
        let before = self.machine.counters().clone();
        self.sync_pool();
        // The batching knob is read from cfg each step (probes retarget
        // it between steps); the depositor ANDs it with its sorting
        // strategy, so unsorted configurations keep the reference sweep.
        // The simd knob rides the same re-read and is ANDed with
        // batching inside the depositor and the push dispatch.
        self.depositor.set_batching(self.cfg.batching);
        self.depositor.set_simd(self.cfg.simd);

        // --- Gather + push + particle boundaries -----------------------
        self.push_particles();

        // --- Sorting (incremental GPMA or per-strategy) ----------------
        let force = std::mem::take(&mut self.pending_global_sort);
        let sort_report = self.depositor.sort_step_parallel(
            &mut self.machine,
            &self.geom,
            &self.layout,
            &mut self.electrons,
            force,
            self.pool.exec(self.cfg.scheduler),
        );
        if sort_report.policy_triggered {
            self.sort_stats.reset();
            // The metric `reset()` just promoted to `baseline_perf` is the
            // *pre-sort* throughput of the step that requested the sort —
            // stale and degraded. Clear it so `update_sort_policy` at the
            // end of *this* step re-seeds the baseline from the first
            // post-sort measurement; until then trigger 5 is disarmed, so
            // the policy cannot re-fire off its own sort's cost.
            self.sort_stats.baseline_perf = 0.0;
        }

        // --- Current deposition ----------------------------------------
        self.depositor.deposit_step_parallel(
            &mut self.machine,
            &self.geom,
            &self.layout,
            &self.electrons,
            &mut self.fields,
            self.pool.exec(self.cfg.scheduler),
        );
        // Credit canonical useful work (section 5.2.2).
        let n = self.num_particles();
        self.machine.counters_mut().useful_flops +=
            canonical_flops_per_particle(self.cfg.shape) * n as f64;

        // --- Field solve + sources + boundaries ------------------------
        // Z-slab sharded stencil sweeps + pooled guard exchange; laser
        // injection and the absorbing layer below stay on this thread in
        // fixed order.
        self.solver.step_sharded(
            &mut self.machine,
            &self.geom,
            &mut self.fields,
            self.dt,
            self.pool.exec(self.cfg.scheduler),
        );
        if let Some(laser) = &self.cfg.laser {
            laser.inject(&self.geom, &mut self.fields, self.time);
        }
        if self.cfg.boundary == BoundaryKind::AbsorbingZ {
            self.machine.in_phase(Phase::Other, |_| {});
            self.cfg.absorber.apply(&self.geom, &mut self.fields);
        }

        // --- Moving window ----------------------------------------------
        if self.cfg.moving_window {
            self.advance_window();
        }

        self.time += self.dt;
        self.step_index += 1;

        // --- Sort-policy bookkeeping (evaluated at end of step) ---------
        let timings = StepTimings::from_delta(&before, self.machine.counters(), n);
        self.update_sort_policy(&timings);
        self.report.push(timings);
        timings
    }

    /// Runs `n` steps and returns the accumulated report.
    pub fn run(&mut self, n: usize) -> &RunReport {
        for _ in 0..n {
            self.step();
        }
        &self.report
    }

    /// Gather + Boris push + position boundaries for every particle,
    /// sharded across the persistent worker pool (tiles are
    /// independent: each worker mutates only its own tiles and reads the
    /// shared immutable field state).
    ///
    /// Each tile is charged on a forked worker machine with a per-tile
    /// cold private cache, and counter deltas merge back in tile order —
    /// so positions, momenta and emulated cycles are bit-identical for
    /// any worker count or scheduler policy.
    ///
    /// With [`SimConfig::batching`] set (and a sorting strategy that
    /// keeps the GPMA cell-accurate), each tile runs the cell-run
    /// batched sweep instead: particles are visited in GPMA-sorted
    /// order, each same-cell run loads its stencil node block once and
    /// every particle interpolates from the cached block — bit-identical
    /// E/B values (gathers are read-only), ~ppc x fewer modelled node
    /// loads.
    fn push_particles(&mut self) {
        // The GPMA bins are position-accurate at push time only when a
        // sorting strategy maintains them for kernel consumption; the
        // unsorted baseline keeps the per-particle reference sweep
        // (whose sampled address stream is the paper's unsorted-gather
        // cost signal) regardless of the knob.
        let batched = self.cfg.batching && self.depositor.strategy().provides_sorted_order();
        // Streaming prices are a mode *of* the batched sweep, so they
        // inherit the same sorted-order guard.
        let stream = batched && self.cfg.simd;
        let workers = self.pool.workers();
        if self.push_scratch.len() < workers {
            self.push_scratch.resize_with(workers, PushScratch::default);
        }
        let ctx = PushCtx {
            geom: &self.geom,
            order: self.cfg.shape,
            fields: &self.fields,
            field_addrs: self.field_addrs,
            boris: self.boris,
            absorbing: self.cfg.boundary == BoundaryKind::AbsorbingZ,
            zlo: self.geom.lo[2],
            zhi: self.geom.hi()[2],
        };
        let counters = self.pool.exec(self.cfg.scheduler).run_counted(
            &self.machine,
            &mut self.electrons.tiles,
            &mut self.push_scratch,
            |wm, _t, tile, scratch| {
                if batched {
                    push_tile_batched(wm, &ctx, stream, tile, scratch);
                } else {
                    push_tile(wm, &ctx, tile, scratch);
                }
            },
        );
        // Deterministic fixed-order counter merge (tile order).
        for c in &counters {
            self.machine.absorb_counters(c);
        }
    }

    /// Shifts the moving window when it has advanced one cell: the
    /// field shift (independent component arrays), the per-tile
    /// particle shift with its trailing-edge removal (independent
    /// tiles) and the per-tile half of the fresh-plasma injection all
    /// run on the worker pool.
    fn advance_window(&mut self) {
        self.window_accum += C * self.dt;
        let dz = self.geom.dx[2];
        while self.window_accum >= dz {
            self.window_accum -= dz;
            self.machine.in_phase(Phase::Other, |m| {
                m.s_ops(self.geom.total_cells() / 8);
            });
            let exec = self.pool.exec(self.cfg.scheduler);
            self.fields.shift_window_z_exec(exec);
            // Shift particles into window coordinates, dropping those
            // that fall off the trailing edge. Tiles are independent, so
            // per-tile outcomes cannot depend on worker count or policy.
            let zlo = self.geom.lo[2];
            exec.for_each(&mut self.electrons.tiles, |_, tile| {
                shift_tile_window(tile, dz, zlo);
            });
            // Inject fresh plasma in the leading z plane.
            if let Some(spec) = self.window_plasma {
                self.inject_front_plane(spec);
            }
        }
    }

    /// Fills the last z-plane of cells with fresh plasma.
    ///
    /// Split in two halves so the RNG stream — and with it every
    /// particle's data *and* insertion order — is bit-identical for any
    /// worker count: particles are *generated* sequentially on the
    /// calling thread (consuming the RNG in the fixed j, i, ppc order)
    /// and bucketed by owning tile, then the per-tile *insertions* run
    /// on the worker pool. A tile's GPMA/SoA state depends only on its
    /// own insertion subsequence, which equals the sequential
    /// interleaving restricted to that tile.
    fn inject_front_plane(&mut self, spec: PlasmaSpec) {
        let n = self.geom.n_cells;
        let k = n[2] - 1;
        let w = spec.density * self.geom.cell_volume() / spec.ppc as f64;
        let n_tiles = self.electrons.tiles.len();
        if self.window_buckets.len() < n_tiles {
            self.window_buckets.resize_with(n_tiles, Vec::new);
        }
        for b in &mut self.window_buckets {
            b.clear();
        }
        for j in 0..n[1] {
            for i in 0..n[0] {
                for _ in 0..spec.ppc {
                    let x = self.geom.lo[0] + (i as f64 + self.rng.gen::<f64>()) * self.geom.dx[0];
                    let y = self.geom.lo[1] + (j as f64 + self.rng.gen::<f64>()) * self.geom.dx[1];
                    let z = self.geom.lo[2] + (k as f64 + self.rng.gen::<f64>()) * self.geom.dx[2];
                    let d = Departure {
                        x,
                        y,
                        z,
                        ux: spec.u_th * self.rng.gen_range(-1.0..1.0),
                        uy: spec.u_th * self.rng.gen_range(-1.0..1.0),
                        uz: spec.u_th * self.rng.gen_range(-1.0..1.0),
                        w,
                    };
                    let (cell, _) = self.geom.locate(d.x, d.y, d.z);
                    let cell = self.geom.wrap_cell(cell);
                    self.window_buckets[self.layout.tile_of_cell(cell)].push(d);
                }
            }
        }
        // Small injections run inline past the shared threshold, like
        // every other small-input phase: the front plane of the test
        // workloads holds a few hundred particles — not worth a pool
        // wake. Either path inserts each tile's bucket in generation
        // order, so the resulting state is identical.
        let total = n[0] * n[1] * spec.ppc;
        if self.pool.workers() == 1 || total < mpic_machine::INLINE_ITEM_THRESHOLD {
            for (t, bucket) in self.window_buckets.iter_mut().enumerate() {
                for d in bucket.drain(..) {
                    let _ = self.electrons.tiles[t].insert(d, self.layout.tile(t), &self.geom);
                }
            }
            return;
        }
        let geom = &self.geom;
        let layout = &self.layout;
        let mut items: Vec<(usize, &mut ParticleTile, &mut Vec<Departure>)> = self
            .electrons
            .tiles
            .iter_mut()
            .enumerate()
            .zip(self.window_buckets.iter_mut())
            .filter(|(_, b)| !b.is_empty())
            .map(|((t, tile), b)| (t, tile, b))
            .collect();
        self.pool
            .exec(self.cfg.scheduler)
            .for_each(&mut items, |_, (t, tile, bucket)| {
                for d in bucket.drain(..) {
                    let _ = tile.insert(d, layout.tile(*t), geom);
                }
            });
    }

    /// Updates [`RankSortStats`] and evaluates the five-trigger policy
    /// (`ShouldPerformGlobalSort`, end of Algorithm 1).
    fn update_sort_policy(&mut self, t: &StepTimings) {
        let SortStrategy::Incremental(policy) = self.depositor.strategy().clone() else {
            return;
        };
        self.sort_stats.steps_since_sort += 1;
        self.sort_stats.rebuilds_accum = self.electrons.rebuilds_accum();
        self.sort_stats.empty_ratio = self.electrons.empty_ratio();
        let dep_s = self.cfg.machine.cycles_to_seconds(t.deposition());
        self.sort_stats.perf_metric = if dep_s > 0.0 {
            t.particles as f64 / dep_s
        } else {
            0.0
        };
        if self.sort_stats.baseline_perf == 0.0 {
            self.sort_stats.baseline_perf = self.sort_stats.perf_metric;
        }
        if policy.should_sort(&self.sort_stats).is_some() {
            self.pending_global_sort = true;
        }
    }
}

/// Checkpoint/restore. The serialized inventory is everything `step()`
/// reads or writes: the nine field arrays, every tile's SoA + GPMA +
/// bin map, the RNG stream, the sort-policy counters, the per-phase
/// performance counters and cache statistics, the behavioural cache
/// state (tags, LRU stamps, stream detectors), the virtual address map
/// with the allocator mark, and the accumulated run report. Everything
/// else a simulation owns is either pure configuration (solver
/// coefficients, Boris coefficients, dt, geometry — rederived from
/// `SimConfig`) or scratch that is cleared before each use.
///
/// The contract (pinned in `tests/snapshot.rs`): `restore` onto a fresh
/// simulation built from the same `SimConfig`, followed by `step()`, is
/// **bit-identical** to stepping the original — fields, currents,
/// particle data, per-phase cycle counters and the final report — for
/// any worker count, scheduler policy and batching mode.
impl Simulation {
    /// Serializes the complete mutable state into the versioned snapshot
    /// format (see [`crate::snapshot`]). Non-destructive: the simulation
    /// is not perturbed, so snapshots can be taken mid-run at any step
    /// boundary.
    pub fn snapshot(&self) -> Vec<u8> {
        let mem = self.machine.mem_ref();
        let am = self
            .depositor
            .addr_map()
            .expect("depositor prepared at construction");
        let (streamed, random) = mem.miss_split();
        let mut w = SnapshotWriter::new();
        w.section(section::META, |w| w.put(&self.fingerprint()));
        let fields: Fields = field_array_refs(&self.fields).map(|a| Cow::Borrowed(a.as_slice()));
        w.section(section::FIELDS, |w| w.put(&fields));
        let particles: Particles = (
            self.electrons.charge,
            self.electrons.mass,
            self.electrons.gap_ratio(),
            Cow::Borrowed(&self.electrons.tiles),
        );
        w.section(section::PARTICLES, |w| w.put(&particles));
        w.section(section::RNG, |w| w.put(&self.rng.state()));
        let driver: Driver = (
            self.sort_stats.clone(),
            self.pending_global_sort,
            self.window_accum,
            self.time,
            self.step_index,
        );
        w.section(section::DRIVER, |w| w.put(&driver));
        let counters: Counters = (
            self.machine.counters().clone(),
            [mem.l1_stats(), mem.l2_stats()],
            streamed,
            random,
        );
        w.section(section::COUNTERS, |w| w.put(&counters));
        w.section(section::CACHE, |w| w.put(&mem.cache_state()));
        let addrs: Addrs = (mem.alloc_mark(), self.field_addrs, Cow::Borrowed(am));
        w.section(section::ADDRS, |w| w.put(&addrs));
        w.section(section::REPORT, |w| w.put(&self.report));
        w.finish()
    }

    /// The configuration fingerprint a snapshot must match to restore here.
    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            n_cells: self.cfg.n_cells,
            dx: self.cfg.dx.map(f64::to_bits),
            tile_size: self.cfg.tile_size,
            guard: self.cfg.guard,
            solver: solver_kind_id(self.solver.kind()),
            shape_order: self.cfg.shape.order(),
            kernel: self.kernel_name().to_owned(),
            dt: self.dt.to_bits(),
            n_tiles: self.electrons.tiles.len(),
            field_len: self.fields.ex.as_slice().len(),
        }
    }

    /// Restores the state captured by [`Simulation::snapshot`] into this
    /// simulation, which must have been built from the same
    /// configuration (geometry, solver, kernel, timestep — runtime knobs
    /// like `num_workers`, `scheduler`, `batching` and `simd` may
    /// differ; they shape host execution, not simulation state).
    ///
    /// Corrupt, truncated or incompatible input returns a structured
    /// [`SnapshotError`] and never panics. Every fallible decode and
    /// validation runs before the first write to `self`, so a failed
    /// restore leaves the simulation exactly as it was.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let rdr = SnapshotReader::new(bytes)?;
        let want = self.fingerprint();
        want.check(&rdr.decode(section::META)?)?;
        let malformed = |section, reason| SnapshotError::Malformed { section, reason };

        let fields: Fields = rdr.decode(section::FIELDS)?;
        if fields.iter().any(|f| f.len() != want.field_len) {
            return Err(malformed(section::FIELDS, "field array length mismatch"));
        }
        let (charge, mass, gap_ratio, tiles): Particles = rdr.decode(section::PARTICLES)?;
        let bad = |reason| malformed(section::PARTICLES, reason);
        if !gap_ratio.is_finite() || gap_ratio < 0.0 {
            return Err(bad("gap ratio outside [0, inf)"));
        }
        if tiles.len() != want.n_tiles {
            return Err(bad("tile count disagrees with META"));
        }
        if tiles
            .iter()
            .zip(self.layout.iter())
            .any(|(t, l)| t.gpma.num_bins() != l.num_cells())
        {
            return Err(bad("GPMA bin count disagrees with the tile layout"));
        }
        let rng_state: u64 = rdr.decode(section::RNG)?;
        let (sort_stats, pending_global_sort, window_accum, time, step_index): Driver =
            rdr.decode(section::DRIVER)?;
        let (counters, [l1_stats, l2_stats], streamed_misses, random_misses): Counters =
            rdr.decode(section::COUNTERS)?;
        let cache_state: CacheSimState = rdr.decode(section::CACHE)?;
        let (alloc_mark, field_addrs, addr_map): Addrs = rdr.decode(section::ADDRS)?;
        let bad_addr = |reason| malformed(section::ADDRS, reason);
        if addr_map.soa.len() != want.n_tiles {
            return Err(bad_addr("SoA address table length"));
        }
        if addr_map.local_index.len() != want.n_tiles {
            return Err(bad_addr("local-index address table length"));
        }
        if addr_map.rhocell.len() != want.n_tiles {
            return Err(bad_addr("rhocell address table length"));
        }
        let report: RunReport = rdr.decode(section::REPORT)?;

        // --- Apply. The cache import is the one remaining fallible
        // step; it validates geometry before mutating anything, so a
        // failure here still leaves `self` untouched. Everything after
        // it is infallible.
        if !self.machine.mem().restore_cache_state(&cache_state) {
            return Err(malformed(
                section::CACHE,
                "cache state rejected by geometry validation",
            ));
        }
        for (arr, data) in field_array_muts(&mut self.fields).into_iter().zip(&fields) {
            arr.as_mut_slice().copy_from_slice(data);
        }
        self.electrons.charge = charge;
        self.electrons.mass = mass;
        self.electrons.set_gap_ratio(gap_ratio);
        self.electrons.tiles = tiles.into_owned();
        // Derived from species parameters — rebuilt, not serialized.
        self.boris = BorisCoeffs::new(charge, mass, self.dt);
        self.rng = StdRng::from_state(rng_state);
        self.sort_stats = sort_stats;
        self.pending_global_sort = pending_global_sort;
        self.window_accum = window_accum;
        self.time = time;
        self.step_index = step_index;
        *self.machine.counters_mut() = counters;
        // Zero the accumulated cache statistics, then seed them with the
        // captured totals through the worker-merge path.
        let _ = self.machine.mem().take_stats();
        self.machine
            .mem()
            .absorb_stats(&l1_stats, &l2_stats, streamed_misses, random_misses);
        self.machine.mem().restore_alloc_mark(alloc_mark);
        self.machine.reset_execution_state();
        self.field_addrs = field_addrs;
        self.depositor.restore_addr_map(addr_map.into_owned());
        self.report = report;
        Ok(())
    }
}

// Section payload types; the large arrays are borrowed when written and
// owned when read. RNG (the stream state), CACHE (`CacheSimState`) and
// REPORT (`RunReport`) carry a single value each.
/// FIELDS: the nine guarded field arrays.
type Fields<'a> = [Cow<'a, [f64]>; 9];
/// PARTICLES: species charge, mass and gap ratio, then every tile.
type Particles<'a> = (f64, f64, f64, Cow<'a, [ParticleTile]>);
/// DRIVER: sort-policy counters, pending global sort, window
/// accumulator, time and step index.
type Driver = (RankSortStats, bool, f64, f64, u64);
/// COUNTERS: the performance counters, L1/L2 hit/miss totals and the
/// streamed/random miss split.
type Counters = (PerfCounters, [CacheStats; 2], u64, u64);
/// ADDRS: the allocator mark, field addresses and depositor address map.
type Addrs<'a> = (u64, [VAddr; 6], Cow<'a, AddrMap>);

/// The META section: the configuration a snapshot was taken under.
/// Floats are kept as their bit patterns, so the comparison is bitwise.
struct Fingerprint {
    n_cells: [usize; 3],
    dx: [u64; 3],
    tile_size: [usize; 3],
    guard: usize,
    solver: u32,
    shape_order: usize,
    kernel: String,
    dt: u64,
    n_tiles: usize,
    field_len: usize,
}

codec_struct! { Fingerprint {
    n_cells, dx, tile_size, guard, solver, shape_order, kernel, dt, n_tiles, field_len,
} }

impl Fingerprint {
    /// `Incompatible`, naming the first field of `got` that differs.
    fn check(&self, got: &Self) -> Result<(), SnapshotError> {
        let fields = [
            (self.n_cells == got.n_cells, "n_cells"),
            (self.dx == got.dx, "dx"),
            (self.tile_size == got.tile_size, "tile_size"),
            (self.guard == got.guard, "guard"),
            (self.solver == got.solver, "solver"),
            (self.shape_order == got.shape_order, "shape order"),
            (self.kernel == got.kernel, "kernel"),
            (self.dt == got.dt, "dt"),
            (self.n_tiles == got.n_tiles, "tile count"),
            (self.field_len == got.field_len, "field length"),
        ];
        match fields.into_iter().find(|&(same, _)| !same) {
            Some((_, reason)) => Err(SnapshotError::Incompatible { reason }),
            None => Ok(()),
        }
    }
}

/// Stable on-disk discriminant for the solver kind.
fn solver_kind_id(k: SolverKind) -> u32 {
    match k {
        SolverKind::Yee => 0,
        SolverKind::Ckc => 1,
    }
}

/// The nine field arrays in serialization order.
fn field_array_refs(f: &FieldArrays) -> [&Array3; 9] {
    [
        &f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz, &f.jx, &f.jy, &f.jz,
    ]
}

/// Mutable view of the nine field arrays in serialization order.
fn field_array_muts(f: &mut FieldArrays) -> [&mut Array3; 9] {
    [
        &mut f.ex, &mut f.ey, &mut f.ez, &mut f.bx, &mut f.by, &mut f.bz, &mut f.jx, &mut f.jy,
        &mut f.jz,
    ]
}

/// One tile's share of the moving-window shift: translate every live
/// particle by one cell towards -z and remove those that fell off the
/// trailing edge. All mutation is tile-local, so the result is a pure
/// function of the tile regardless of which pool worker runs it.
fn shift_tile_window(tile: &mut ParticleTile, dz: f64, zlo: f64) {
    let mut removals = Vec::new();
    for p in 0..tile.soa.slots() {
        if !tile.soa.alive[p] {
            continue;
        }
        tile.soa.z[p] -= dz;
        if tile.soa.z[p] < zlo {
            removals.push(p);
        }
    }
    tile.remove_slots(&removals);
}

/// What every tile's push reads: the field state and the constants of
/// one push phase, shared read-only by all tiles.
struct PushCtx<'a> {
    geom: &'a GridGeometry,
    order: ShapeOrder,
    fields: &'a FieldArrays,
    field_addrs: [VAddr; 6],
    boris: BorisCoeffs,
    /// Particles leaving `[zlo, zhi)` are removed; otherwise z wraps.
    absorbing: bool,
    zlo: f64,
    zhi: f64,
}

/// One tile's gather + Boris push + boundary handling, charged on the
/// worker machine `wm` with a fresh per-tile cache. All mutation is
/// tile-local; the field state is read-only.
fn push_tile(
    wm: &mut Machine,
    ctx: &PushCtx<'_>,
    tile: &mut ParticleTile,
    scratch: &mut PushScratch,
) {
    scratch.clear();
    scratch.live.extend(tile.soa.live_indices());
    if scratch.live.is_empty() {
        return;
    }
    wm.mem().flush_cache();
    let (geom, fields) = (ctx.geom, ctx.fields);
    for &p in &scratch.live {
        let (mut x, mut y, mut z) = (tile.soa.x[p], tile.soa.y[p], tile.soa.z[p]);
        let (e, b, cw) = gather_fields_with_cell(geom, ctx.order, fields, x, y, z);
        scratch.sample_idx.push(fields.ex.idx(
            cw[0] + geom.guard,
            cw[1] + geom.guard,
            cw[2] + geom.guard,
        ));
        let (mut ux, mut uy, mut uz) = (tile.soa.ux[p], tile.soa.uy[p], tile.soa.uz[p]);
        boris_push(
            &ctx.boris, e, b, &mut ux, &mut uy, &mut uz, &mut x, &mut y, &mut z,
        );
        finish_push(ctx, tile, &mut scratch.removals, p, [x, y, z], [ux, uy, uz]);
    }
    tile.remove_slots(&scratch.removals);
    charge_gather(
        wm,
        GatherCost::default(),
        scratch.live.len(),
        ctx.order.nodes_3d(),
        &ctx.field_addrs,
        &scratch.sample_idx,
    );
    charge_push(wm, scratch.live.len());
}

/// The cell-run batched variant of [`push_tile`]: particles are visited
/// in GPMA-sorted order (the grouping heuristic — same-bin particles
/// are adjacent), buffered per same-cell run as `(slot, frac)` pairs,
/// and — when the run closes — interpolated from the run's cached
/// stencil node block AND Boris-pushed in lane-width packs: the masked
/// lane gather ([`gather_from_block_lanes_masked`]) hands `(E, B)` to the
/// lane-parallel push ([`boris_push_lanes`]) still in lane registers,
/// and ragged tails run the same packs under a prefix mask. Each lane
/// holds one particle end to end, and every lane operation is the
/// correctly-rounded per-lane twin of its scalar counterpart, so E/B
/// values, positions, momenta and removals are bit-identical to the
/// per-particle sweep.
///
/// Run boundaries come from each particle's **actual located cell**,
/// not from its GPMA bin: the moving-window shift translates positions
/// after the last maintenance pass, so bins can be one cell stale at
/// push time — the located cell never is, and it is computed anyway for
/// the interpolation weights. A uniformly stale order still groups
/// perfectly, so the amortisation is unaffected.
///
/// `stream` picks how a closed run's gather is priced. Without it,
/// [`charge_gather_run`] walks the cache simulator once per distinct
/// stencil line per field array. With it, the previous run's stencil
/// block stays in lane registers across the run boundary, so
/// [`charge_gather_run_reuse`] charges only the cache lines the new
/// stencil adds, at the state-free streaming price: a pure function of
/// the run's node indices plus the declared field-array footprint (grids
/// small enough to sit in L1 cross the roofline to the resident line
/// price). The reuse state is tile-local — reset at tile start and
/// advanced in run order, which the GPMA sweep fixes independently of
/// worker count or scheduler policy — so Gather cycles stay
/// bit-identical across workers x policies either way. Deferring the
/// Boris push to run close is safe: gathers are read-only and each
/// particle's writeback touches only its own SoA slots, so no buffered
/// particle can observe another's push.
fn push_tile_batched(
    wm: &mut Machine,
    ctx: &PushCtx<'_>,
    stream: bool,
    tile: &mut ParticleTile,
    scratch: &mut PushScratch,
) {
    scratch.clear();
    scratch.live.extend(tile.gpma.iter_sorted().map(|(_, p)| p));
    if scratch.live.is_empty() {
        return;
    }
    wm.mem().flush_cache();
    let geom = ctx.geom;
    let mut block = NodeBlock::new();
    // Roofline footprint of one guarded field array: the whole array is
    // swept by a tile's run sequence, so this is the operand span the
    // streaming price compares against L1 capacity.
    let dims = geom.dims_with_guard();
    let field_footprint = (dims[0] * dims[1] * dims[2] * 8) as u64;
    // Register-reuse state: the node list of the last flushed run's
    // block. Tile-local and advanced in GPMA run order, so the charge
    // stream is identical for every worker count and policy.
    let mut prev_idx = [0usize; MAX_STENCIL_NODES];
    let mut prev_n = 0usize;
    // No cell has this value after wrapping, so the first particle
    // always opens a run.
    let mut run_cell = [usize::MAX; 3];
    for &p in &scratch.live {
        let (x, y, z) = (tile.soa.x[p], tile.soa.y[p], tile.soa.z[p]);
        let (located, frac) = geom.locate(x, y, z);
        let cell = geom.wrap_cell(located);
        if cell != run_cell {
            flush_run(
                wm,
                ctx,
                tile,
                &block,
                &scratch.run_slots,
                &scratch.run_frac,
                stream.then_some((&prev_idx[..prev_n], field_footprint)),
                &mut scratch.removals,
            );
            if !scratch.run_slots.is_empty() {
                prev_n = block.nodes;
                prev_idx[..prev_n].copy_from_slice(&block.idx[..prev_n]);
            }
            scratch.run_slots.clear();
            scratch.run_frac.clear();
            load_node_block(geom, ctx.order, ctx.fields, cell, &mut block);
            run_cell = cell;
        }
        scratch.run_slots.push(p);
        scratch.run_frac.push(frac);
    }
    flush_run(
        wm,
        ctx,
        tile,
        &block,
        &scratch.run_slots,
        &scratch.run_frac,
        stream.then_some((&prev_idx[..prev_n], field_footprint)),
        &mut scratch.removals,
    );
    scratch.run_slots.clear();
    scratch.run_frac.clear();
    tile.remove_slots(&scratch.removals);
    charge_push(wm, scratch.live.len());
}

/// Closes one buffered same-cell run of the batched sweep: charges the
/// run gather, then interpolates and Boris-pushes the particles in
/// lane-width packs. `stream` selects the gather price: `None` walks the
/// cache ([`charge_gather_run`]); `Some((prev_idx, field_footprint))`
/// streams with run-to-run register reuse ([`charge_gather_run_reuse`]:
/// `prev_idx` is the node list of the previously flushed block — cache
/// lines it covers stay in lane registers and charge nothing;
/// `field_footprint` feeds the roofline crossover). The final ragged
/// pack — every run length that is not a multiple of [`W`] — runs the
/// same lane kernels under a prefix mask
/// ([`gather_from_block_lanes_masked`]): inactive tail lanes carry zeros
/// through the gather and push (all operations stay finite on zeros) and
/// are simply never written back. Particles retire in buffer (= GPMA)
/// order, so the removal sequence is a pure function of the tile.
fn flush_run(
    wm: &mut Machine,
    ctx: &PushCtx<'_>,
    tile: &mut ParticleTile,
    block: &NodeBlock,
    slots: &[usize],
    fracs: &[[f64; 3]],
    stream: Option<(&[usize], u64)>,
    removals: &mut Vec<usize>,
) {
    if slots.is_empty() {
        return;
    }
    let node_idx = &block.idx[..block.nodes];
    let cost = GatherCost::default();
    match stream {
        None => charge_gather_run(wm, cost, slots.len(), &ctx.field_addrs, node_idx),
        Some((prev_idx, footprint)) => charge_gather_run_reuse(
            wm,
            cost,
            slots.len(),
            &ctx.field_addrs,
            node_idx,
            prev_idx,
            footprint,
        ),
    }
    let mut i = 0;
    while i < slots.len() {
        let n = (slots.len() - i).min(W);
        let pack = &slots[i..i + n];
        let (e, b) = gather_from_block_lanes_masked(ctx.order, block, &fracs[i..i + n]);
        // Transpose the pack's phase space into lane registers; tail
        // lanes beyond `n` stay zero.
        let mut u = [Lanes::zero(); 3];
        let mut pos = [Lanes::zero(); 3];
        for (l, &p) in pack.iter().enumerate() {
            pos[0].0[l] = tile.soa.x[p];
            pos[1].0[l] = tile.soa.y[p];
            pos[2].0[l] = tile.soa.z[p];
            u[0].0[l] = tile.soa.ux[p];
            u[1].0[l] = tile.soa.uy[p];
            u[2].0[l] = tile.soa.uz[p];
        }
        boris_push_lanes(&ctx.boris, &e, &b, &mut u, &mut pos);
        for (l, &p) in pack.iter().enumerate() {
            let lane = |v: &[Lanes; 3]| [v[0].lane(l), v[1].lane(l), v[2].lane(l)];
            finish_push(ctx, tile, removals, p, lane(&pos), lane(&u));
        }
        i += n;
    }
}

/// Boundary handling + SoA writeback of one already-pushed particle
/// (post-push position `pos` and momentum `u`): the one epilogue every
/// push path retires its particles through — [`push_tile`] after each
/// [`boris_push`], [`flush_run`] per lane of a pack.
fn finish_push(
    ctx: &PushCtx<'_>,
    tile: &mut ParticleTile,
    removals: &mut Vec<usize>,
    p: usize,
    pos: [f64; 3],
    u: [f64; 3],
) {
    let [x, y, wrapped_z] = ctx.geom.wrap_position(pos);
    let z = if ctx.absorbing {
        if pos[2] < ctx.zlo || pos[2] >= ctx.zhi {
            removals.push(p);
        }
        pos[2]
    } else {
        wrapped_z
    };
    tile.soa.x[p] = x;
    tile.soa.y[p] = y;
    tile.soa.z[p] = z;
    tile.soa.ux[p] = u[0];
    tile.soa.uy[p] = u[1];
    tile.soa.uz[p] = u[2];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn small_sim_steps_and_reports() {
        let mut sim = workloads::uniform_plasma_sim(
            [8, 8, 8],
            8,
            mpic_deposit::ShapeOrder::Cic,
            mpic_deposit::KernelConfig::FullOpt,
            1,
        );
        let n0 = sim.num_particles();
        let t = sim.step();
        assert_eq!(sim.step_index(), 1);
        assert_eq!(sim.num_particles(), n0, "periodic run conserves N");
        assert!(t.total() > 0.0);
        assert!(t.deposition() > 0.0);
        assert!(t.phase(Phase::Gather) > 0.0);
        assert!(t.phase(Phase::Push) > 0.0);
        assert!(t.phase(Phase::FieldSolve) > 0.0);
    }

    #[test]
    fn forced_global_sort_reseeds_baseline_from_post_sort_step() {
        let mut sim = workloads::uniform_plasma_sim(
            [8, 8, 8],
            4,
            mpic_deposit::ShapeOrder::Cic,
            mpic_deposit::KernelConfig::FullOpt,
            5,
        );
        sim.step(); // Seed the policy baseline from a normal step.
        sim.request_global_sort();
        assert!(sim.global_sort_pending());
        sim.step(); // Executes the forced sort.
        assert!(
            !sim.global_sort_pending(),
            "policy re-fired immediately after its own forced sort"
        );
        let s = sim.sort_stats();
        assert_eq!(s.steps_since_sort, 1);
        assert!(s.baseline_perf > 0.0, "baseline must be re-seeded");
        assert_eq!(
            s.baseline_perf.to_bits(),
            s.perf_metric.to_bits(),
            "baseline must be the first post-sort step's metric, not the \
             stale pre-sort throughput"
        );
    }

    #[test]
    fn charge_is_conserved_over_steps() {
        let mut sim = workloads::uniform_plasma_sim(
            [8, 8, 8],
            4,
            mpic_deposit::ShapeOrder::Cic,
            mpic_deposit::KernelConfig::FullOpt,
            2,
        );
        let q0 = sim.total_charge();
        sim.run(3);
        let q1 = sim.total_charge();
        assert!(((q1 - q0) / q0).abs() < 1e-12);
        sim.electrons.check_invariants();
    }
}
