//! Per-layer figures: exact emulated counters over a fixed window of
//! steps, and host-timed replays of each crate's public entry points on
//! clones of the simulation state.

use mpic_core::{RunReport, Simulation};
use mpic_deposit::{Depositor, KernelConfig};
use mpic_grid::constants::C;
use mpic_grid::GridGeometry;
use mpic_machine::{Machine, Phase, WorkerPool};
use mpic_particles::{MoveStats, ParticleContainer};
use mpic_solver::MaxwellSolver;

use crate::trace::Tracer;
use crate::workload::Member;

/// Cumulative counters of one simulation at a step boundary.
pub struct Mark {
    report_len: usize,
    useful_flops: f64,
    flops_issued: f64,
    mopa_ops: u64,
    vector_ops: u64,
    cache: [u64; 6],
    dispatches: u64,
    global_sorts: u64,
    checkpoints: u64,
}

impl Mark {
    pub fn take(members: &[Member]) -> Vec<Mark> {
        members.iter().map(Mark::of).collect()
    }

    fn of(m: &Member) -> Mark {
        let c = m.sim.machine.counters();
        Mark {
            report_len: m.sim.report().len(),
            useful_flops: c.useful_flops,
            flops_issued: c.flops_issued,
            mopa_ops: c.mopa_ops,
            vector_ops: c.vector_ops,
            cache: cache_counts(&m.sim),
            dispatches: m.sim.pool().dispatch_count(),
            global_sorts: m.global_sorts,
            checkpoints: m.checkpoints(),
        }
    }
}

/// L1 hits and misses, L2 hits and misses, streamed and random misses.
fn cache_counts(sim: &Simulation) -> [u64; 6] {
    let mem = sim.machine.mem_ref();
    let (l1, l2) = (mem.l1_stats(), mem.l2_stats());
    let (streamed, random) = mem.miss_split();
    [l1.hits, l1.misses, l2.hits, l2.misses, streamed, random]
}

/// Emulated figures of the window between a [`Mark`] and now, summed
/// over the workload's simulations. Every field is a pure function of
/// the seeds, so two runs of the same seed must agree bit for bit.
pub struct Exact {
    pub steps: usize,
    /// Emulated seconds per step, from `RunReport::wall_seconds_per_step`.
    pub step_s: f64,
    /// Emulated deposition-kernel seconds per step.
    pub deposit_s: f64,
    /// Emulated seconds per step of each [`Phase::ALL`] entry.
    pub phase_s: [f64; 8],
    /// Emulated deposition-kernel seconds per step of each simulation.
    pub deposit_s_by_kernel: Vec<(KernelConfig, f64)>,
    pub useful_flops: f64,
    pub flops_issued: f64,
    pub mopa_ops: u64,
    pub vector_ops: u64,
    pub cache: [u64; 6],
    pub dispatches: u64,
    pub global_sorts: u64,
    pub checkpoints: u64,
    /// Mean GPMA empty-slot ratio at the end of the window.
    pub empty_ratio: f64,
    /// Every step's per-phase cycles and particle count, bit patterns.
    fingerprint: Vec<u64>,
}

impl Exact {
    pub fn since(members: &[Member], marks: &[Mark]) -> Exact {
        let mut e = Exact {
            steps: 0,
            step_s: 0.0,
            deposit_s: 0.0,
            phase_s: [0.0; 8],
            deposit_s_by_kernel: Vec::new(),
            useful_flops: 0.0,
            flops_issued: 0.0,
            mopa_ops: 0,
            vector_ops: 0,
            cache: [0; 6],
            dispatches: 0,
            global_sorts: 0,
            checkpoints: 0,
            empty_ratio: 0.0,
            fingerprint: Vec::new(),
        };
        for (m, mark) in members.iter().zip(marks) {
            let clock = &m.sim.cfg.machine;
            let mut rep = RunReport::default();
            for s in &m.sim.report().steps[mark.report_len..] {
                rep.push(*s);
                e.fingerprint.extend(s.cycles.map(f64::to_bits));
                e.fingerprint.push(s.particles as u64);
            }
            let n = rep.len().max(1) as f64;
            e.steps = rep.len();
            e.step_s += rep.wall_seconds_per_step(clock);
            let dep = rep.deposition_seconds(clock) / n;
            e.deposit_s += dep;
            e.deposit_s_by_kernel.push((m.kernel, dep));
            for (i, p) in Phase::ALL.into_iter().enumerate() {
                e.phase_s[i] += clock.cycles_to_seconds(rep.phase_cycles(p)) / n;
            }
            let c = m.sim.machine.counters();
            e.useful_flops += c.useful_flops - mark.useful_flops;
            e.flops_issued += c.flops_issued - mark.flops_issued;
            e.mopa_ops += c.mopa_ops - mark.mopa_ops;
            e.vector_ops += c.vector_ops - mark.vector_ops;
            for (acc, (now, then)) in e
                .cache
                .iter_mut()
                .zip(cache_counts(&m.sim).into_iter().zip(mark.cache))
            {
                *acc += now - then;
            }
            e.dispatches += m.sim.pool().dispatch_count() - mark.dispatches;
            e.global_sorts += m.global_sorts - mark.global_sorts;
            e.checkpoints += m.checkpoints() - mark.checkpoints;
            e.empty_ratio += m.sim.electrons.empty_ratio() / members.len() as f64;
        }
        let floats = [
            e.step_s,
            e.deposit_s,
            e.useful_flops,
            e.flops_issued,
            e.empty_ratio,
        ];
        e.fingerprint.extend(floats.map(f64::to_bits));
        e.fingerprint.extend(e.phase_s.map(f64::to_bits));
        e.fingerprint.extend(e.cache);
        e.fingerprint.extend([
            e.mopa_ops,
            e.vector_ops,
            e.dispatches,
            e.global_sorts,
            e.checkpoints,
        ]);
        e
    }

    /// Whether two windows agree bit for bit.
    pub fn same_bits(&self, other: &Exact) -> bool {
        self.fingerprint == other.fingerprint
    }

    /// Emulated milliseconds per step of one phase.
    pub fn phase_ms(&self, phase: Phase) -> f64 {
        let i = Phase::ALL
            .iter()
            .position(|p| *p == phase)
            .expect("every phase is listed in Phase::ALL");
        1e3 * self.phase_s[i]
    }
}

/// Host seconds and counts of one replay of each layer, after one
/// simulation step.
#[derive(Default, Clone, Copy)]
pub struct ReplayTimes {
    pub deposit: f64,
    pub sort: f64,
    pub solver: f64,
    pub snapshot: f64,
    pub restore: f64,
    pub snapshot_bytes: usize,
    /// Whether the checkpoint round trip was replayed.
    pub checkpoint: bool,
    pub particles: usize,
    pub moves: MoveStats,
}

impl ReplayTimes {
    pub fn add(&mut self, o: &ReplayTimes) {
        self.deposit += o.deposit;
        self.sort += o.sort;
        self.solver += o.solver;
        self.snapshot += o.snapshot;
        self.restore += o.restore;
        self.snapshot_bytes += o.snapshot_bytes;
        self.checkpoint |= o.checkpoint;
        self.particles += o.particles;
        self.moves.merge(&o.moves);
    }
}

/// A benchmark-owned copy of the layers one simulation drives: its own
/// depositor, solver, emulated machine and worker pool, so replays never
/// touch the measured simulation's state.
pub struct Replay {
    depositor: Depositor,
    solver: MaxwellSolver,
    machine: Machine,
    pool: WorkerPool,
}

impl Replay {
    pub fn new(sim: &Simulation) -> Self {
        let cfg = &sim.cfg;
        let mut machine = Machine::new(cfg.machine.clone());
        let mut depositor = cfg.kernel.build(cfg.shape);
        depositor.set_batching(cfg.batching);
        depositor.set_simd(cfg.simd);
        // `prepare` runs the initial global sort on the container it is
        // given; hand it a clone.
        let mut scratch = sim.electrons.clone();
        depositor.prepare(&mut machine, &sim.geom, &sim.layout, &mut scratch);
        Self {
            depositor,
            solver: MaxwellSolver::new(cfg.solver, &sim.geom),
            machine,
            pool: WorkerPool::new(cfg.num_workers),
        }
    }

    /// Replays sorting, deposition and the field solve on clones of
    /// `m`'s state after step `step`, and with `checkpoint` a snapshot of
    /// it restored into `spare`, a second simulation built from the same
    /// configuration. Returns `None` if the restore fails.
    pub fn run(
        &mut self,
        m: &Member,
        spare: &mut Simulation,
        step: usize,
        parent: Option<usize>,
        checkpoint: bool,
        tracer: &mut Tracer,
    ) -> Option<ReplayTimes> {
        let sim = &m.sim;
        let (geom, layout) = (&sim.geom, &sim.layout);
        let exec = self.pool.exec(sim.cfg.scheduler);
        let cfg = Some(m.kernel.label());
        let mut t = ReplayTimes {
            particles: sim.num_particles(),
            ..ReplayTimes::default()
        };

        // A real step sorts, then deposits. Replay both in that order on
        // a clone advanced by one free-streaming step: the moving window
        // shifts positions after the deposit, so the post-step container
        // itself is not in the sorted state a deposit expects.
        let mut particles = sim.electrons.clone();
        free_stream(&mut particles, geom, sim.dt());
        let s = tracer.open("particles.sort_step_parallel", Some(step), cfg, parent);
        let report = self.depositor.sort_step_parallel(
            &mut self.machine,
            geom,
            layout,
            &mut particles,
            false,
            exec,
        );
        t.sort = tracer.close(s);
        t.moves = report.gpma;

        let mut fields = sim.fields.clone();
        let s = tracer.open("deposit.deposit_step_parallel", Some(step), cfg, parent);
        self.depositor.deposit_step_parallel(
            &mut self.machine,
            geom,
            layout,
            &particles,
            &mut fields,
            exec,
        );
        t.deposit = tracer.close(s);
        drop(particles);

        fields = sim.fields.clone();
        let s = tracer.open("solver.step_sharded", Some(step), cfg, parent);
        self.solver
            .step_sharded(&mut self.machine, geom, &mut fields, sim.dt(), exec);
        t.solver = tracer.close(s);
        drop(fields);

        if !checkpoint {
            return Some(t);
        }
        t.checkpoint = true;
        let s = tracer.open("core.snapshot", Some(step), cfg, parent);
        let bytes = sim.snapshot();
        t.snapshot = tracer.close(s);
        t.snapshot_bytes = bytes.len();
        let s = tracer.open("core.restore", Some(step), cfg, parent);
        let restored = spare.restore(&bytes);
        t.restore = tracer.close(s);
        restored.ok().map(|()| t)
    }
}

/// Moves every particle one step along its momentum, wrapping positions
/// periodically into the domain, so the sort replay has cell and tile
/// crossings to apply.
fn free_stream(c: &mut ParticleContainer, geom: &GridGeometry, dt: f64) {
    let hi = geom.hi();
    for tile in &mut c.tiles {
        let live: Vec<usize> = tile.soa.live_indices().collect();
        let soa = &mut tile.soa;
        for p in live {
            let (ux, uy, uz) = (soa.ux[p], soa.uy[p], soa.uz[p]);
            let v = C * dt / (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
            let pos = [&mut soa.x[p], &mut soa.y[p], &mut soa.z[p]];
            for (d, (x, u)) in pos.into_iter().zip([ux, uy, uz]).enumerate() {
                let len = hi[d] - geom.lo[d];
                *x = geom.lo[d] + (*x + u * v - geom.lo[d]).rem_euclid(len);
                // `rem_euclid` of a tiny negative offset rounds up to `len`.
                if *x >= hi[d] {
                    *x = geom.lo[d];
                }
            }
        }
    }
}
