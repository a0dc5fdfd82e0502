//! Checkpoint/restore tests: deterministic snapshot round-trips and the
//! per-section corruption matrix.
//!
//! The `conf_` tests pin the crash-resilience contract: a simulation that is
//! snapshotted mid-run and restored into a *fresh* `Simulation` (built from
//! the same config) must continue bit-identically to the uninterrupted run —
//! fields, currents, particles, RNG, per-phase counters and cache behavioural
//! state included — across every worker count, scheduler policy and batching
//! mode. Corrupted snapshot bytes must produce structured [`SnapshotError`]s,
//! never panics.

use matrix_pic::core::snapshot::{section, SnapshotError};
use matrix_pic::core::{workloads, Simulation};
use matrix_pic::deposit::{KernelConfig, ShapeOrder};
use matrix_pic::machine::SchedulerPolicy;

mod common;

const UNIFORM_DIMS: [usize; 3] = [8, 8, 8];
const UNIFORM_PPC: usize = 2;
const UNIFORM_SEED: u64 = 97;
const LWFA_DIMS: [usize; 3] = [8, 8, 32];
const LWFA_PPC: usize = 2;
const LWFA_SEED: u64 = 13;

fn uniform_sim(workers: usize, policy: SchedulerPolicy, batching: bool) -> Simulation {
    let mut sim = workloads::uniform_plasma_sim(
        UNIFORM_DIMS,
        UNIFORM_PPC,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        UNIFORM_SEED,
    );
    sim.cfg.num_workers = workers;
    sim.cfg.scheduler = policy;
    sim.cfg.batching = batching;
    sim
}

fn lwfa_sim(workers: usize, policy: SchedulerPolicy, batching: bool) -> Simulation {
    let mut sim = workloads::lwfa_sim(
        LWFA_DIMS,
        LWFA_PPC,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        LWFA_SEED,
    );
    sim.cfg.num_workers = workers;
    sim.cfg.scheduler = policy;
    sim.cfg.batching = batching;
    sim
}

/// Run `total` steps uninterrupted; separately run `pre` steps, snapshot,
/// restore into a fresh sim and run the remaining steps there. Both final
/// states are compared through `Simulation::snapshot`, which captures every
/// piece of stepping state (fields, particles, RNG, counters, cache tags,
/// report), so byte equality is total-state equality.
fn assert_restore_continues_bit_identical(
    make: &dyn Fn() -> Simulation,
    pre: usize,
    total: usize,
    label: &str,
) {
    assert!(pre < total);
    let mut reference = make();
    reference.run(total);
    let expected = reference.snapshot();

    let mut interrupted = make();
    interrupted.run(pre);
    let checkpoint = interrupted.snapshot();
    drop(interrupted);

    let mut resumed = make();
    resumed
        .restore(&checkpoint)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    resumed.run(total - pre);
    let actual = resumed.snapshot();

    assert_eq!(
        expected.len(),
        actual.len(),
        "{label}: snapshot size diverged after restore"
    );
    assert!(
        expected == actual,
        "{label}: state diverged after snapshot/restore"
    );
}

/// Snapshot -> restore -> N steps is bit-identical to the uninterrupted run
/// for every worker count x scheduler policy x batching mode in the paper's
/// determinism matrix (uniform plasma workload).
#[test]
fn conf_snapshot_restore_bit_identical_across_exec_matrix() {
    for &workers in &[1usize, 2, 4, 7] {
        for &policy in &[SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
            for &batching in &[false, true] {
                let label = format!("uniform w={workers} {policy:?} batching={batching}");
                assert_restore_continues_bit_identical(
                    &|| uniform_sim(workers, policy, batching),
                    2,
                    4,
                    &label,
                );
            }
        }
    }
}

/// The LWFA workload exercises the moving window, the laser antenna, the
/// absorbing boundaries and the RNG-driven fresh-plasma injection — all of
/// which must survive a checkpoint bit-exactly.
#[test]
fn conf_snapshot_restore_bit_identical_lwfa_moving_window() {
    for &workers in &[1usize, 4] {
        for &policy in &[SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
            let label = format!("lwfa w={workers} {policy:?}");
            assert_restore_continues_bit_identical(
                &|| lwfa_sim(workers, policy, true),
                3,
                6,
                &label,
            );
        }
    }
}

fn uniform_simd_sim(workers: usize, policy: SchedulerPolicy) -> Simulation {
    let mut sim = uniform_sim(workers, policy, true);
    sim.cfg.simd = true;
    sim
}

/// Snapshot -> restore -> N steps under the lane-parallel mode
/// (`SimConfig::simd`) is bit-identical to the uninterrupted SIMD run —
/// total state, counters included, across worker counts and policies.
#[test]
fn conf_snapshot_restore_bit_identical_with_simd() {
    for &workers in &[1usize, 4] {
        for &policy in &[SchedulerPolicy::Static, SchedulerPolicy::Stealing] {
            let label = format!("uniform simd w={workers} {policy:?}");
            assert_restore_continues_bit_identical(
                &|| uniform_simd_sim(workers, policy),
                2,
                4,
                &label,
            );
        }
    }
}

/// A checkpoint is simd-agnostic for *state*: a snapshot written under the
/// batched-scalar mode restores into a simd-on simulation and continues
/// with bit-identical field values. The writer's two scalar-mode steps
/// charge the cache-walking prices in the memory-bound phases the SIMD
/// mode re-prices through the state-free streaming model, so the resumed
/// run carries a strictly higher Preprocess/Compute/Reduce/Gather/Sort
/// history than the uninterrupted simd-on run. (Gather joined the
/// strictly-cheaper set with the roofline crossover: this 8^3 grid's
/// guarded field arrays fit in L1, so the streamed block loads now pay the
/// resident line price instead of being overcharged at the flat DRAM
/// stream rate — previously the mostly-L1-hit cache walk undercut the
/// stream here. Sort joined when the incremental sweep's position scan
/// was re-priced through the same streaming model.) Every other phase
/// matches bitwise.
#[test]
fn conf_snapshot_written_scalar_restores_into_simd() {
    use matrix_pic::machine::Phase;

    let mut writer = uniform_sim(1, SchedulerPolicy::Static, true);
    writer.run(2);
    let checkpoint = writer.snapshot();

    let mut reference = uniform_simd_sim(1, SchedulerPolicy::Static);
    reference.run(4);

    let mut resumed = uniform_simd_sim(1, SchedulerPolicy::Static);
    resumed.restore(&checkpoint).expect("cross-simd restore");
    resumed.run(2);

    let fields = |s: &Simulation| {
        [
            s.fields.jx.clone(),
            s.fields.jy.clone(),
            s.fields.jz.clone(),
            s.fields.ex.clone(),
            s.fields.ey.clone(),
            s.fields.ez.clone(),
            s.fields.bx.clone(),
            s.fields.by.clone(),
            s.fields.bz.clone(),
        ]
    };
    for (i, (a, b)) in fields(&reference).iter().zip(fields(&resumed)).enumerate() {
        let same = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(u, v)| u.to_bits() == v.to_bits());
        assert!(same, "field {i} diverged after scalar->simd restore");
    }
    for p in Phase::ALL {
        let want = reference.machine.counters().cycles(p);
        let got = resumed.machine.counters().cycles(p);
        if matches!(
            p,
            Phase::Preprocess | Phase::Compute | Phase::Reduce | Phase::Gather | Phase::Sort
        ) {
            assert!(
                got > want,
                "writer's scalar steps must leave a higher {p:?} history \
                 ({got} vs {want})"
            );
        } else {
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "{p:?} cycles diverged after scalar->simd restore"
            );
        }
    }
}

/// A checkpoint is worker/scheduler agnostic: state written under one worker
/// count and policy may be restored under another, and the continuation is
/// still bit-identical to an uninterrupted run under the *target* config
/// (the determinism contract says workers and scheduling never change
/// results). Batching must match, because batching changes the emulated
/// cost-model charges the counters and report accumulate.
#[test]
fn conf_snapshot_restores_across_worker_counts() {
    let mut writer = uniform_sim(1, SchedulerPolicy::Static, true);
    writer.run(2);
    let checkpoint = writer.snapshot();

    let mut reference = uniform_sim(7, SchedulerPolicy::Stealing, true);
    reference.run(4);
    let expected = reference.snapshot();

    let mut resumed = uniform_sim(7, SchedulerPolicy::Stealing, true);
    resumed.restore(&checkpoint).expect("cross-config restore");
    resumed.run(2);
    assert!(
        resumed.snapshot() == expected,
        "restoring a w=1/static checkpoint into w=7/stealing diverged"
    );
}

/// Restore is idempotent at the byte level: restoring a snapshot and
/// immediately re-snapshotting reproduces the original bytes exactly.
#[test]
fn conf_snapshot_round_trip_is_byte_lossless() {
    let mut sim = lwfa_sim(2, SchedulerPolicy::Stealing, true);
    sim.run(3);
    let first = sim.snapshot();

    let mut fresh = lwfa_sim(2, SchedulerPolicy::Stealing, true);
    fresh.restore(&first).expect("round-trip restore");
    let second = fresh.snapshot();
    assert!(
        first == second,
        "snapshot -> restore -> snapshot changed bytes"
    );
}

// ---------------------------------------------------------------------------
// Corruption matrix: every malformed input is a structured error, never a
// panic, and a failed restore leaves the target simulation untouched.
// ---------------------------------------------------------------------------

/// Parse the section table of a snapshot: (id, payload offset, payload len).
fn section_table(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let e = 16 + i * 28;
            let id = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
            let off = u64::from_le_bytes(bytes[e + 4..e + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().unwrap()) as usize;
            (id, off, len)
        })
        .collect()
}

fn snapshot_for_corruption() -> (Vec<u8>, Simulation) {
    let mut sim = uniform_sim(2, SchedulerPolicy::Static, false);
    sim.run(2);
    let bytes = sim.snapshot();
    (bytes, sim)
}

#[test]
fn corrupted_snapshot_truncation_is_structured() {
    let (bytes, mut sim) = snapshot_for_corruption();
    // Every truncation length must fail cleanly: header-short inputs report
    // TooShort, table/payload-short inputs report a table or checksum error.
    for keep in [0usize, 7, 15, 16, 40, bytes.len() / 2, bytes.len() - 1] {
        let err = sim
            .restore(&bytes[..keep.min(bytes.len())])
            .expect_err("truncated snapshot must not restore");
        match err {
            SnapshotError::TooShort
            | SnapshotError::BadSectionTable
            | SnapshotError::ChecksumMismatch { .. } => {}
            other => panic!("truncation at {keep} gave unexpected error: {other}"),
        }
    }
}

#[test]
fn corrupted_snapshot_bad_magic_and_version() {
    let (bytes, mut sim) = snapshot_for_corruption();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xff;
    assert!(matches!(
        sim.restore(&bad_magic),
        Err(SnapshotError::BadMagic)
    ));

    let mut bad_version = bytes.clone();
    bad_version[8] = 0xfe;
    assert!(matches!(
        sim.restore(&bad_version),
        Err(SnapshotError::BadVersion(_))
    ));
}

/// Flipping one payload byte in *each* section is caught by that section's
/// checksum — corruption is localised and reported per section.
#[test]
fn corrupted_snapshot_every_section_checksum_detected() {
    let (bytes, mut sim) = snapshot_for_corruption();
    let table = section_table(&bytes);
    let all = [
        section::META,
        section::FIELDS,
        section::PARTICLES,
        section::RNG,
        section::DRIVER,
        section::COUNTERS,
        section::CACHE,
        section::ADDRS,
        section::REPORT,
    ];
    for &id in &all {
        let &(_, off, len) = table
            .iter()
            .find(|&&(sid, _, _)| sid == id)
            .unwrap_or_else(|| panic!("snapshot missing section {id}"));
        assert!(len > 0, "section {id} has empty payload");
        let mut corrupt = bytes.clone();
        corrupt[off + len / 2] ^= 0x01;
        match sim.restore(&corrupt) {
            Err(SnapshotError::ChecksumMismatch { section: s }) => {
                assert_eq!(s, id, "corruption attributed to the wrong section")
            }
            other => panic!("section {id} corruption gave {other:?}"),
        }
    }
}

/// A snapshot from an incompatible simulation shape is rejected with
/// `Incompatible` and leaves the target fully untouched.
#[test]
fn incompatible_snapshot_rejected_and_target_untouched() {
    let mut small = uniform_sim(2, SchedulerPolicy::Static, false);
    small.run(2);
    let checkpoint = small.snapshot();

    let mut other = workloads::uniform_plasma_sim(
        [8, 8, 16],
        UNIFORM_PPC,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        UNIFORM_SEED,
    );
    other.run(1);
    let before = other.snapshot();
    assert!(matches!(
        other.restore(&checkpoint),
        Err(SnapshotError::Incompatible { .. })
    ));
    // Failed restores are all-or-nothing: the target state is unchanged.
    assert!(
        other.snapshot() == before,
        "failed restore mutated the target"
    );
}

/// Corrupt restores (checksum failures) are also all-or-nothing.
#[test]
fn failed_checksum_restore_leaves_target_untouched() {
    let (bytes, mut sim) = snapshot_for_corruption();
    let before = sim.snapshot();
    let table = section_table(&bytes);
    let &(_, off, len) = table
        .iter()
        .find(|&&(sid, _, _)| sid == section::PARTICLES)
        .expect("particles section present");
    let mut corrupt = bytes.clone();
    corrupt[off + len / 3] ^= 0x80;
    assert!(sim.restore(&corrupt).is_err());
    assert!(
        sim.snapshot() == before,
        "failed restore mutated the target"
    );
}

/// A named simulation constructor.
type Labelled = (&'static str, fn() -> Simulation);

/// Tile 0 of a PARTICLES payload: the byte offset of its `cells` vector
/// (the length prefix) and its GPMA bin count. Walks the section's
/// layout: charge, mass, gap ratio and tile count, then the tile's seven
/// `f64` attribute vectors, `alive` bytes, free-slot list and `cells`,
/// then `local_index` and `bin_offsets` up to `bin_lengths`.
fn tile0_cells(payload: &[u8]) -> (usize, usize) {
    let len_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 4 * 8;
    for elem_bytes in [8, 8, 8, 8, 8, 8, 8, 1, 8] {
        at += 8 + elem_bytes * len_at(at);
    }
    let cells_at = at;
    for _ in 0..3 {
        at += 8 + 8 * len_at(at);
    }
    (cells_at, len_at(at))
}

/// A tile whose bin map disagrees with its SoA or its GPMA is rejected as
/// malformed, behind valid checksums, and the target is left untouched.
/// Two mutations of tile 0's `cells`, on both workloads: dropping the last
/// entry (the map is then shorter than the SoA — stepping such a tile
/// indexes past its end) and moving one live particle to another valid
/// bin (the map then contradicts the GPMA — stepping it runs silently on
/// an inconsistent index).
#[test]
fn restore_rejects_a_bin_map_that_disagrees_with_the_tile() {
    let makers: [Labelled; 2] = [
        ("uniform", || uniform_sim(1, SchedulerPolicy::Static, false)),
        ("lwfa", || lwfa_sim(1, SchedulerPolicy::Static, false)),
    ];
    for (label, make) in makers {
        let mut source = make();
        source.run(2);
        let parts = common::sections(&source.snapshot());
        let pi = parts
            .iter()
            .position(|(id, _)| *id == section::PARTICLES)
            .expect("particles section present");
        let (cells_at, n_bins) = tile0_cells(&parts[pi].1);
        let payload = &parts[pi].1;
        let n_cells = u64::from_le_bytes(payload[cells_at..cells_at + 8].try_into().unwrap());
        let entry = |i: usize| cells_at + 8 + 8 * i;

        let mut shortened = payload.clone();
        shortened[cells_at..cells_at + 8].copy_from_slice(&(n_cells - 1).to_le_bytes());
        let last = entry(n_cells as usize - 1);
        shortened.drain(last..last + 8);

        let mut rebinned = payload.clone();
        let live = (0..n_cells as usize)
            .find(|&i| {
                let at = entry(i);
                u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) != u64::MAX
            })
            .expect("tile 0 holds a live particle");
        let at = entry(live);
        let bin = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        rebinned[at..at + 8].copy_from_slice(&((bin + 1) % n_bins as u64).to_le_bytes());

        for (mutation, body) in [("shortened cells", shortened), ("re-binned cell", rebinned)] {
            let mut corrupt = parts.clone();
            corrupt[pi].1 = body;
            let mut target = make();
            target.run(1);
            let before = target.snapshot();
            match target.restore(&common::seal(&corrupt)) {
                Err(SnapshotError::Malformed { section: s, .. }) => {
                    assert_eq!(s, section::PARTICLES, "{label}/{mutation}: wrong section")
                }
                other => panic!("{label}/{mutation}: restore gave {other:?}"),
            }
            assert!(
                target.snapshot() == before,
                "{label}/{mutation}: failed restore mutated the target"
            );
        }
    }
}

/// The snapshot byte layout, pinned: length and FNV-1a 64 of `snapshot()`
/// after two steps of a uniform per-particle run, the same run in SIMD
/// mode, and an LWFA QSP moving-window run. Any change to a section's
/// field order or widths fails here; a deliberate format change bumps
/// `snapshot::VERSION` and re-pins these constants.
#[test]
fn conf_snapshot_format_is_pinned() {
    let cases: [Labelled; 3] = [
        ("uniform cic fullopt per-particle", || {
            uniform_sim(1, SchedulerPolicy::Static, false)
        }),
        ("uniform cic fullopt simd", || {
            uniform_simd_sim(1, SchedulerPolicy::Static)
        }),
        ("lwfa qsp fullopt moving window", || {
            workloads::lwfa_sim(
                LWFA_DIMS,
                LWFA_PPC,
                ShapeOrder::Qsp,
                KernelConfig::FullOpt,
                LWFA_SEED,
            )
        }),
    ];
    let got: Vec<(&str, usize, u64)> = cases
        .iter()
        .map(|&(label, make)| {
            let mut sim = make();
            sim.run(2);
            let bytes = sim.snapshot();
            (label, bytes.len(), common::fnv1a64(&bytes))
        })
        .collect();
    let want: [(&str, usize, u64); 3] = [
        (
            "uniform cic fullopt per-particle",
            299199,
            0x03ef_f54a_fbcc_7a90,
        ),
        ("uniform cic fullopt simd", 299199, 0xfae7_8f25_fc5a_c69e),
        (
            "lwfa qsp fullopt moving window",
            868912,
            0xf62e_cbf1_0a02_f034,
        ),
    ];
    assert!(
        got == want,
        "snapshot format drifted; recomputed (label, bytes, fnv):\n{}",
        got.iter()
            .map(|(label, len, hash)| format!("    (\"{label}\", {len}, 0x{hash:016x}),\n"))
            .collect::<String>()
    );
}
