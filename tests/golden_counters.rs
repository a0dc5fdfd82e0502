//! Golden counter ledger: the absolute emulated counters of a small
//! workload matrix, pinned bit for bit.
//!
//! Every other determinism test is relative (mode vs mode, workers vs
//! workers), so a change that shifts every configuration equally passes
//! them silently. This ledger pins the absolute values instead: for each
//! of {uniform 8³, LWFA 8×8×32} × {CIC, QSP} × {BaselineIncrSort,
//! RhocellIncrSortVpu, FullOpt} × {per-particle, batched-scalar, SIMD}
//! it records the exact bits of every per-phase cycle count and of the
//! issued and useful FLOPs, the L1/L2 hit and miss counts, the streamed
//! and random DRAM misses, the scalar, vector, MOPA and tile-transfer op
//! counts, the particle count and a hash of the final field bits.
//!
//! The committed reference is `tests/golden/counters.txt`. A refactor
//! that claims to leave the cost model untouched must leave that file
//! byte-identical. On a mismatch the test prints the recomputed ledger
//! in full, so an intended model change can replace the file and explain
//! the diff in its change notes.

use matrix_pic::core::{workloads, Simulation};
use matrix_pic::deposit::{KernelConfig, ShapeOrder};
use matrix_pic::machine::Phase;

const GOLDEN: &str = include_str!("golden/counters.txt");

/// Time steps per configuration.
const STEPS: usize = 2;

/// Particles per cell for both workloads.
const PPC: usize = 2;

/// Ledger seed (fixed; the matrix is the variable).
const SEED: u64 = 0x601d;

#[derive(Clone, Copy)]
enum Workload {
    Uniform,
    Lwfa,
}

#[derive(Clone, Copy)]
enum Mode {
    PerParticle,
    BatchedScalar,
    Simd,
}

fn build(w: Workload, shape: ShapeOrder, kernel: KernelConfig, mode: Mode) -> Simulation {
    let mut sim = match w {
        Workload::Uniform => workloads::uniform_plasma_sim([8, 8, 8], PPC, shape, kernel, SEED),
        Workload::Lwfa => workloads::lwfa_sim([8, 8, 32], PPC, shape, kernel, SEED),
    };
    let (batching, simd) = match mode {
        Mode::PerParticle => (false, false),
        Mode::BatchedScalar => (true, false),
        Mode::Simd => (true, true),
    };
    sim.cfg.batching = batching;
    sim.cfg.simd = simd;
    sim
}

/// FNV-1a over the bits of every field array, in a fixed order.
fn field_hash(sim: &Simulation) -> u64 {
    let f = &sim.fields;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for arr in [
        &f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz, &f.jx, &f.jy, &f.jz,
    ] {
        for v in arr.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// One ledger line: the configuration label followed by `key=value`
/// fields. Floating-point values are written as their raw bits.
fn ledger_line(label: &str, sim: &Simulation) -> String {
    let c = sim.machine.counters();
    let mem = sim.machine.mem_ref();
    let (l1, l2) = (mem.l1_stats(), mem.l2_stats());
    let (streamed, random) = mem.miss_split();
    let mut line = label.to_string();
    for p in Phase::ALL {
        line += &format!(" {}={:016x}", p.label(), c.cycles(p).to_bits());
    }
    line += &format!(
        " flops={:016x} useful={:016x} l1_hit={} l1_miss={} l2_hit={} l2_miss={} \
         streamed={} random={} scalar_ops={} vector_ops={} mopa_ops={} xfers={} n={} \
         fields={:016x}",
        c.flops_issued.to_bits(),
        c.useful_flops.to_bits(),
        l1.hits,
        l1.misses,
        l2.hits,
        l2.misses,
        streamed,
        random,
        c.scalar_ops,
        c.vector_ops,
        c.mopa_ops,
        c.tile_transfers,
        sim.num_particles(),
        field_hash(sim),
    );
    line
}

/// Every configuration of the matrix, labelled, in ledger order.
fn matrix() -> Vec<(String, Workload, ShapeOrder, KernelConfig, Mode)> {
    let mut out = Vec::new();
    for (wname, w) in [
        ("uniform8", Workload::Uniform),
        ("lwfa8x8x32", Workload::Lwfa),
    ] {
        for (sname, shape) in [("cic", ShapeOrder::Cic), ("qsp", ShapeOrder::Qsp)] {
            for (kname, kernel) in [
                ("baseline_incrsort", KernelConfig::BaselineIncrSort),
                ("rhocell_incrsort_vpu", KernelConfig::RhocellIncrSortVpu),
                ("fullopt", KernelConfig::FullOpt),
            ] {
                for (mname, mode) in [
                    ("per_particle", Mode::PerParticle),
                    ("batched_scalar", Mode::BatchedScalar),
                    ("simd", Mode::Simd),
                ] {
                    let label = format!("{wname}/{sname}/{kname}/{mname}");
                    out.push((label, w, shape, kernel, mode));
                }
            }
        }
    }
    out
}

/// Recomputes the ledger. The configurations are independent, so up to
/// four host threads split them; lines are reassembled in matrix order.
fn recompute() -> String {
    let configs = matrix();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut lines = vec![String::new(); configs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let configs = &configs;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, (label, w, shape, kernel, mode)) in configs.iter().enumerate() {
                        if i % threads == t {
                            let mut sim = build(*w, *shape, *kernel, *mode);
                            sim.run(STEPS);
                            mine.push((i, ledger_line(label, &sim)));
                        }
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, line) in h.join().expect("ledger worker panicked") {
                lines[i] = line;
            }
        }
    });
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn conf_golden_counter_ledger() {
    let got = recompute();
    if got != GOLDEN {
        let golden_lines: Vec<&str> = GOLDEN.lines().collect();
        for (i, line) in got.lines().enumerate() {
            if golden_lines.get(i) != Some(&line) {
                eprintln!("ledger line {} differs:", i + 1);
                eprintln!("  golden: {}", golden_lines.get(i).unwrap_or(&"<missing>"));
                eprintln!("  got:    {line}");
            }
        }
        eprintln!("----- recomputed tests/golden/counters.txt -----");
        eprint!("{got}");
        eprintln!("----- end -----");
        panic!(
            "emulated counters diverged from tests/golden/counters.txt \
             ({} golden lines, {} recomputed)",
            golden_lines.len(),
            got.lines().count()
        );
    }
}
