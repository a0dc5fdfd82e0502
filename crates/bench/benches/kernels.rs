//! Criterion micro-benchmarks over the deposition kernels and their
//! substrates. These measure *host* execution time of the emulated
//! kernels (useful for tracking the emulator's own performance); the
//! paper-figure regeneration uses the cycle-model harness bins instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpic_core::workloads;
use mpic_deposit::{KernelConfig, ShapeOrder};
use mpic_grid::{FieldArrays, GridGeometry, TileLayout};
use mpic_machine::{Machine, MachineConfig, SchedulerPolicy, WorkerPool};
use mpic_particles::Gpma;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_deposition_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("deposit_cic_ppc8");
    group.sample_size(10);
    for kernel in [
        KernelConfig::Baseline,
        KernelConfig::RhocellIncrSortVpu,
        KernelConfig::FullOpt,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kernel.label()),
            &kernel,
            |b, &kernel| {
                let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1e-6; 3], 2);
                let layout = TileLayout::new(&geom, [8, 8, 8]);
                let mut container = workloads::load_uniform_plasma(
                    &geom,
                    &layout,
                    workloads::UNIFORM_DENSITY,
                    8,
                    0.01,
                    1,
                );
                let mut m = Machine::new(MachineConfig::lx2());
                let mut dep = kernel.build(ShapeOrder::Cic);
                dep.prepare(&mut m, &geom, &layout, &mut container);
                let mut fields = FieldArrays::new(&geom);
                b.iter(|| {
                    dep.sort_step_parallel(
                        &mut m,
                        &geom,
                        &layout,
                        &mut container,
                        false,
                        WorkerPool::sequential().exec(SchedulerPolicy::Static),
                    );
                    dep.deposit_step_parallel(
                        &mut m,
                        &geom,
                        &layout,
                        &container,
                        &mut fields,
                        WorkerPool::sequential().exec(SchedulerPolicy::Static),
                    );
                    std::hint::black_box(fields.jx.sum())
                });
            },
        );
    }
    group.finish();
}

fn bench_gpma_maintenance(c: &mut Criterion) {
    c.bench_function("gpma_apply_moves_5pct", |b| {
        let n_bins = 512;
        let n = 512 * 16;
        b.iter(|| {
            let mut cells: Vec<usize> = (0..n).map(|p| p % n_bins).collect();
            let mut g = Gpma::build(&cells, n_bins, 0.5);
            for step in 0..5 {
                for p in (step..n).step_by(20) {
                    let old = cells[p];
                    let new = if old + 1 < n_bins { old + 1 } else { old - 1 };
                    g.queue_move(p, old, new);
                    cells[p] = new;
                }
                let _ = g.apply_pending_moves(&cells);
            }
            std::hint::black_box(g.num_particles())
        });
    });
}

fn bench_counting_sort(c: &mut Criterion) {
    c.bench_function("counting_sort_64k", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let keys: Vec<usize> = (0..65536).map(|_| rng.gen_range(0..512)).collect();
        b.iter(|| {
            let (perm, _) = mpic_particles::counting_sort_keys(&keys, 512);
            std::hint::black_box(perm.len())
        });
    });
}

fn bench_full_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_pic_step");
    group.sample_size(10);
    for (name, kernel) in [
        ("baseline", KernelConfig::Baseline),
        ("matrixpic", KernelConfig::FullOpt),
    ] {
        group.bench_function(name, |b| {
            let mut sim = workloads::uniform_plasma_sim([8, 8, 8], 4, ShapeOrder::Cic, kernel, 9);
            b.iter(|| {
                sim.step();
                std::hint::black_box(sim.step_index())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_deposition_kernels,
    bench_gpma_maintenance,
    bench_counting_sort,
    bench_full_step
);
criterion_main!(benches);
