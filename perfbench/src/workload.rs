//! The three benchmark workloads and how each simulation is built and
//! stepped. README.md in this directory says why each one exists.

use mpic_core::{workloads, DriverError, PlasmaSpec, ResilientDriver, SimConfig, Simulation};
use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_grid::{GridGeometry, TileLayout};

use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UniformCicSimd,
    LwfaQspCkpt,
    Table1Mix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::UniformCicSimd,
        Workload::LwfaQspCkpt,
        Workload::Table1Mix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformCicSimd => "uniform_cic_simd",
            Workload::LwfaQspCkpt => "lwfa_qsp_ckpt",
            Workload::Table1Mix => "table1_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Steps in one measured pass. The exact metrics cover one pass, so
    /// they do not depend on how many passes fit in the time budget.
    /// The uniform plasmas are numerically unstable at these settings
    /// (a Debye length far below the cell size): from about step 20 the
    /// field energy grows by orders of magnitude and most particles
    /// change cell every step. Passes stop before that, in the thermal
    /// regime the configurations are meant to model.
    pub fn pass_steps(self) -> usize {
        match self {
            Workload::UniformCicSimd => 16,
            Workload::LwfaQspCkpt => 20,
            Workload::Table1Mix => 5,
        }
    }

    /// Times the workload is built per run; `setup_s` is their median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::LwfaQspCkpt => 3,
            _ => 5,
        }
    }

    /// The simulations one workload step advances, in stepping order.
    fn specs(self, seed: u64) -> Vec<Spec> {
        match self {
            Workload::UniformCicSimd => {
                let mut cfg = workloads::uniform_plasma_config(
                    [32, 32, 32],
                    ShapeOrder::Cic,
                    KernelConfig::FullOpt,
                    seed,
                );
                cfg.batching = true;
                cfg.simd = true;
                vec![Spec::uniform(cfg, 8)]
            }
            Workload::LwfaQspCkpt => {
                let mut cfg = workloads::lwfa_config(
                    [16, 16, 128],
                    ShapeOrder::Qsp,
                    KernelConfig::FullOpt,
                    seed,
                );
                cfg.batching = true;
                cfg.simd = true;
                let ppc = 8;
                vec![Spec {
                    cfg,
                    ppc,
                    density: workloads::LWFA_DENSITY,
                    u_th: 0.0,
                    window: Some(PlasmaSpec {
                        density: workloads::LWFA_DENSITY,
                        ppc,
                        u_th: 0.0,
                    }),
                    checkpoint_interval: Some(10),
                }]
            }
            Workload::Table1Mix => KernelConfig::VPU_COMPARISON
                .into_iter()
                .map(|kernel| {
                    let cfg = workloads::uniform_plasma_config(
                        [16, 16, 16],
                        ShapeOrder::Cic,
                        kernel,
                        seed,
                    );
                    Spec::uniform(cfg, 16)
                })
                .collect(),
        }
    }

    /// Builds every simulation of the workload from the seeds. Returns
    /// the members and the seconds spent loading particles.
    pub fn build(
        self,
        seed: u64,
        shuffle_seed: u64,
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) -> (Vec<Member>, f64) {
        let mut load_s = 0.0;
        let members = self
            .specs(seed)
            .into_iter()
            .map(|spec| {
                let (m, load) = spec.build(shuffle_seed, tracer, parent);
                load_s += load;
                m
            })
            .collect();
        (members, load_s)
    }
}

/// Inputs of one simulation.
struct Spec {
    cfg: SimConfig,
    ppc: usize,
    density: f64,
    u_th: f64,
    window: Option<PlasmaSpec>,
    /// Steps between checkpoints when stepped through a
    /// [`ResilientDriver`]; `None` steps the simulation directly.
    checkpoint_interval: Option<usize>,
}

impl Spec {
    fn uniform(cfg: SimConfig, ppc: usize) -> Self {
        Self {
            cfg,
            ppc,
            density: workloads::UNIFORM_DENSITY,
            u_th: workloads::UNIFORM_UTH,
            window: None,
            checkpoint_interval: None,
        }
    }

    /// Mirrors `workloads::uniform_plasma_sim` / `lwfa_sim`, with the
    /// particle load timed apart from `Simulation::from_parts` (which
    /// runs the initial global sort). Unsorted configurations are
    /// shuffled as `mpic_bench::measure_uniform` does.
    fn build(self, shuffle_seed: u64, tracer: &mut Tracer, parent: Option<usize>) -> (Member, f64) {
        let kernel = self.cfg.kernel;
        let label = kernel.label();
        let geom = GridGeometry::new(self.cfg.n_cells, [0.0; 3], self.cfg.dx, self.cfg.guard);
        let layout = TileLayout::new(&geom, self.cfg.tile_size);
        let span = tracer.open("particles.load", None, Some(label), parent);
        let electrons = workloads::load_uniform_plasma(
            &geom,
            &layout,
            self.density,
            self.ppc,
            self.u_th,
            self.cfg.seed,
        );
        let load_s = tracer.close(span);
        let span = tracer.open("core.from_parts", None, Some(label), parent);
        let mut sim = Simulation::from_parts(self.cfg, geom, layout, electrons, self.window);
        if !sim
            .cfg
            .kernel
            .build(sim.cfg.shape)
            .strategy()
            .provides_sorted_order()
        {
            workloads::shuffle_particles(&mut sim.electrons, &sim.geom, &sim.layout, shuffle_seed);
        }
        tracer.close(span);
        let mut member = Member {
            kernel,
            particles0: sim.num_particles(),
            charge0: sim.total_charge(),
            checkpoint_interval: self.checkpoint_interval,
            driver: None,
            global_sorts: 0,
            sim,
        };
        member.begin_pass();
        (member, load_s)
    }
}

/// One simulation of a workload, with what its checks compare against.
pub struct Member {
    pub kernel: KernelConfig,
    pub sim: Simulation,
    driver: Option<ResilientDriver>,
    checkpoint_interval: Option<usize>,
    particles0: usize,
    charge0: f64,
    /// Steps that began with a global sort pending.
    pub global_sorts: u64,
}

impl Member {
    /// Starts a measured pass with a fresh driver, so every pass takes
    /// its checkpoints at the same steps.
    pub fn begin_pass(&mut self) {
        self.driver = self
            .checkpoint_interval
            .map(|interval| ResilientDriver::new(interval, 0));
    }

    /// Advances one step the way the workload's user does: through the
    /// resilient driver when the workload checkpoints, else directly.
    pub fn step(&mut self) -> Result<(), DriverError> {
        if self.sim.global_sort_pending() {
            self.global_sorts += 1;
        }
        match &mut self.driver {
            Some(d) => d.run(&mut self.sim, 1).map(|_| ()),
            None => {
                self.sim.step();
                Ok(())
            }
        }
    }

    /// The per-step output check. Energies must be finite. Without a
    /// moving window, the live particle count and the total charge are
    /// conserved. A driven simulation must have needed no rollback.
    pub fn step_ok(&self) -> bool {
        let sim = &self.sim;
        let finite = sim.kinetic_energy().is_finite() && sim.field_energy().is_finite();
        let conserved = sim.cfg.moving_window || {
            let rel = ((sim.total_charge() - self.charge0) / self.charge0).abs();
            sim.num_particles() == self.particles0 && rel <= 1e-12
        };
        let recovered = self.driver.as_ref().is_none_or(|d| {
            let s = d.stats();
            s.failures == 0 && s.steps_replayed == 0
        });
        finite && conserved && recovered
    }

    pub fn checkpoints(&self) -> u64 {
        self.driver
            .as_ref()
            .map_or(0, |d| d.stats().checkpoints_taken as u64)
    }
}
