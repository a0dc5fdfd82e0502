//! The repository benchmark. Runs one named workload against the public
//! `mpic-core` API for a given number of seconds, checks its outputs and
//! prints its metrics, the last line being one JSON object.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <uniform_cic_simd|lwfa_qsp_ckpt|table1_mix> \
//!     --seed <n> --seconds <s> --trace <0|1> [--shuffle-seed <n>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics with tracing off.
//! `--trace 1` replays each layer after every second step, records
//! spans, writes them to `perfbench/out/` and prints the per-layer
//! metrics. README.md in this directory explains the workloads and what
//! each metric is expected to move.

mod hostref;
mod layers;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mpic_core::DriverError;
use mpic_deposit::KernelConfig;
use mpic_grid::FieldArrays;
use mpic_machine::Phase;

use hostref::HostRef;
use layers::{Exact, Mark, Replay, ReplayTimes};
use trace::Tracer;
use workload::{Member, Workload};

/// Fewest measured passes in a run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: mpic-perfbench --workload <uniform_cic_simd|lwfa_qsp_ckpt|table1_mix> \
--seed <n> --seconds <s> --trace <0|1> [--shuffle-seed <n>]";

struct Args {
    workload: Workload,
    seed: u64,
    /// Seed of the steady-state shuffle applied to unsorted
    /// configurations (default: derived from `seed`).
    shuffle_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut shuffle_seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--shuffle-seed" => {
                shuffle_seed = Some(value.parse().map_err(|_| bad("expected an integer"))?)
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed: u64 = seed.ok_or("--seed is required")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        shuffle_seed: shuffle_seed.unwrap_or(seed ^ 0x5348_5546),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Output checks made during the run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

fn check_step(m: &Member, stepped: &Result<(), DriverError>, checks: &mut Checks) {
    let step = m.sim.step_index();
    checks.check(stepped.is_ok() && m.step_ok(), || {
        format!("{} step {step}: {stepped:?}", m.kernel.label())
    });
}

/// Whether two field states agree bit for bit in all nine arrays.
fn same_fields(a: &FieldArrays, b: &FieldArrays) -> bool {
    fn arrays(f: &FieldArrays) -> [&mpic_grid::Array3; 9] {
        [
            &f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz, &f.jx, &f.jy, &f.jz,
        ]
    }
    arrays(a).iter().zip(arrays(b)).all(|(x, y)| {
        let (x, y) = (x.as_slice(), y.as_slice());
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    })
}

/// One measured workload step (one step of every member).
struct Round {
    host_s: f64,
    particles: usize,
    /// Host reference sample taken just before the step.
    ref_ms: f64,
    replay: Option<ReplayTimes>,
}

/// One pass over the workload's window of steps, from the checkpoint.
struct Pass {
    traced: bool,
    rounds: Vec<Round>,
}

fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MB, from the kernel's `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let mut tracer = Tracer::new(args.trace);
    let mut checks = Checks::default();

    // --- Set-up, several times; the first two builds are kept --------
    let mut setup_s = Vec::new();
    let mut load_s = Vec::new();
    let mut built = Vec::new();
    for _ in 0..wl.setup_reps() {
        let span = tracer.open("core.setup", None, None, None);
        let (members, load) = wl.build(args.seed, args.shuffle_seed, &mut tracer, span.id());
        setup_s.push(tracer.close(span));
        load_s.push(load);
        if built.len() < 2 {
            built.push(members);
        }
    }
    let mut spare = built.pop().expect("two builds are kept");
    let mut timed = built.pop().expect("two builds are kept");

    // --- Measured passes ----------------------------------------------
    // Every pass replays the same window of steps from a checkpoint taken
    // after one warm-up step. Passes run until `--seconds` have gone by,
    // and at least `MIN_PASSES`. Passes are repetitions: their emulated
    // counters and final fields must agree bit for bit. With tracing on,
    // passes run in groups of plain, traced, traced, plain, and only
    // whole groups; that order cancels a linear drift in host speed, so
    // the tracing overhead compares like with like. The host reference
    // is sampled before every step.
    let group = if args.trace { 4 } else { 1 };
    let mut host_ref = HostRef::new();
    let mut replays: Vec<Replay> = if args.trace {
        timed.iter().map(|m| Replay::new(&m.sim)).collect()
    } else {
        Vec::new()
    };
    let mut ok = timed.iter_mut().all(|m| {
        let stepped = m.step();
        check_step(m, &stepped, &mut checks);
        stepped.is_ok()
    });
    let checkpoint: Vec<Vec<u8>> = timed.iter().map(|m| m.sim.snapshot()).collect();
    let window = wl.pass_steps();
    let mut passes: Vec<Pass> = Vec::new();
    let mut first: Option<(Exact, Vec<FieldArrays>)> = None;
    let measuring = Instant::now();
    while ok
        && (passes.len() < MIN_PASSES
            || !passes.len().is_multiple_of(group)
            || measuring.elapsed().as_secs_f64() < args.seconds)
    {
        let traced = args.trace && matches!(passes.len() % 4, 1 | 2);
        for m in &mut timed {
            m.begin_pass();
        }
        let marks = Mark::take(&timed);
        let mut rounds = Vec::with_capacity(window);
        for i in 0..window {
            // Measured-step ordinal across passes, for the span file.
            let step = passes.len() * window + i;
            let mut round = Round {
                host_s: 0.0,
                particles: 0,
                ref_ms: host_ref.sample(),
                replay: None,
            };
            let mut spans = Vec::with_capacity(timed.len());
            for m in &mut timed {
                let span = tracer.open("core.step", Some(step), Some(m.kernel.label()), None);
                spans.push(span.id());
                let stepped = m.step();
                round.host_s += tracer.close(span);
                round.particles += m.sim.num_particles();
                check_step(m, &stepped, &mut checks);
                ok &= stepped.is_ok();
            }
            if traced && ok {
                let mut sum = ReplayTimes::default();
                for ((m, r), (s, parent)) in timed
                    .iter()
                    .zip(&mut replays)
                    .zip(spare.iter_mut().zip(&spans))
                {
                    let t = r.run(m, &mut s.sim, step, *parent, i % 5 == 0, &mut tracer);
                    checks.check(t.is_some(), || {
                        format!("{}: restore replay", m.kernel.label())
                    });
                    sum.add(&t.unwrap_or_default());
                }
                round.replay = Some(sum);
            }
            rounds.push(round);
            if !ok {
                break;
            }
        }
        let exact = Exact::since(&timed, &marks);
        let fields: Vec<FieldArrays> = timed.iter().map(|m| m.sim.fields.clone()).collect();
        match &first {
            None => first = Some((exact, fields)),
            Some((e, f)) => {
                let same =
                    exact.same_bits(e) && f.iter().zip(&fields).all(|(a, b)| same_fields(a, b));
                checks.check(same, || {
                    format!(
                        "pass {} differs from pass 0 after restoring the checkpoint",
                        passes.len()
                    )
                });
            }
        }
        passes.push(Pass { traced, rounds });
        for (m, bytes) in timed.iter_mut().zip(&checkpoint) {
            let restored = m.sim.restore(bytes);
            checks.check(restored.is_ok(), || {
                format!("{}: restore: {restored:?}", m.kernel.label())
            });
            ok &= restored.is_ok();
        }
    }
    let Some((exact, _)) = first else {
        eprintln!("the warm-up step failed; nothing was measured");
        return ExitCode::FAILURE;
    };
    if wl == Workload::Table1Mix {
        let dep = &exact.deposit_s_by_kernel;
        let of = |k: KernelConfig| dep.iter().find(|(c, _)| *c == k).map(|(_, s)| *s);
        let (lo, hi) = (
            dep.iter().map(|(_, s)| *s).fold(f64::INFINITY, f64::min),
            dep.iter().map(|(_, s)| *s).fold(0.0, f64::max),
        );
        checks.check(
            of(KernelConfig::FullOpt) == Some(lo) && of(KernelConfig::Baseline) == Some(hi),
            || format!("table1 direction: FullOpt lowest, Baseline highest; got {dep:?}"),
        );
    }

    // --- Metrics ------------------------------------------------------
    let plain: Vec<&Round> = passes
        .iter()
        .filter(|p| !p.traced)
        .flat_map(|p| &p.rounds)
        .collect();
    let step_ms: Vec<f64> = plain.iter().map(|r| 1e3 * r.host_s).collect();
    let host_s: f64 = plain.iter().map(|r| r.host_s).sum();
    let particle_steps: usize = plain.iter().map(|r| r.particles).sum();
    let throughput = particle_steps as f64 / host_s;
    let ref_ms = median(&plain.iter().map(|r| r.ref_ms).collect::<Vec<_>>());
    // Each step at the recording host's speed: its host time divided by
    // how much slower than at recording the reference ran over its pass.
    let norm_ms: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .flat_map(|p| {
            let pass_ref = median(&p.rounds.iter().map(|r| r.ref_ms).collect::<Vec<_>>());
            let scale = hostref::NOMINAL_MS / pass_ref;
            p.rounds.iter().map(move |r| 1e3 * r.host_s * scale)
        })
        .collect();
    let norm_s: f64 = norm_ms.iter().sum::<f64>() / 1e3;
    let peak = peak_rss_mb();
    checks.check(peak.is_some(), || "peak RSS unreadable".into());
    let metrics = if args.trace {
        let traced: Vec<&Round> = passes
            .iter()
            .filter(|p| p.traced)
            .flat_map(|p| &p.rounds)
            .collect();
        let mut m = vec![
            metric("host.particle_steps_per_s", throughput, "1/s"),
            metric("host.step_ms_p50", median(&step_ms), "ms"),
            metric("host.ref_ms", ref_ms, "ms"),
        ];
        m.extend(layer_metrics(&traced, median(&step_ms), &exact, &load_s));
        m
    } else {
        vec![
            metric(
                "particle_steps_per_s_norm",
                particle_steps as f64 / norm_s,
                "1/s",
            ),
            metric("step_ms_p50_norm", median(&norm_ms), "ms"),
            metric("emu_ms_per_step", 1e3 * exact.step_s, "ms"),
            metric("emu_deposit_ms_per_step", 1e3 * exact.deposit_s, "ms"),
            metric("setup_s", median(&setup_s), "s"),
            metric("peak_rss_mb", peak.unwrap_or(0.0), "MB"),
        ]
    };
    for m in &metrics {
        checks.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }

    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", wl.name(), args.seed));
        match tracer.write(&path, wl.name()) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => checks.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    println!(
        "workload {} seed {} shuffle-seed {}: {} passes of {} steps; step_ms_p50 over {} untraced steps, {:.2} s host",
        wl.name(),
        args.seed,
        args.shuffle_seed,
        passes.len(),
        window,
        step_ms.len(),
        host_s,
    );
    println!(
        "  as measured: {:.1} particle-steps/s, step_ms_p50 {:.3} ms; host reference {:.3} ms (nominal {} ms)",
        throughput,
        median(&step_ms),
        ref_ms,
        hostref::NOMINAL_MS,
    );
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  checks: {} attempted, {} failed (failed_frac {})",
        checks.attempted,
        checks.failed,
        checks.failed as f64 / checks.attempted as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The per-layer metrics of a traced run: host figures from the traced
/// passes, exact figures from the first pass. `plain_step_ms` is the
/// median step time of the untraced passes of the same run.
fn layer_metrics(rounds: &[&Round], plain_step_ms: f64, w: &Exact, load_s: &[f64]) -> Vec<Metric> {
    let step_ms: Vec<f64> = rounds.iter().map(|r| 1e3 * r.host_s).collect();
    let replays: Vec<(f64, ReplayTimes)> = rounds
        .iter()
        .filter_map(|r| r.replay.map(|t| (r.host_s, t)))
        .collect();
    let of = |f: &dyn Fn(f64, &ReplayTimes) -> Option<f64>| -> f64 {
        median(
            &replays
                .iter()
                .filter_map(|(s, t)| f(*s, t))
                .collect::<Vec<_>>(),
        )
    };
    let mut moves = mpic_particles::MoveStats::default();
    for (_, t) in &replays {
        moves.merge(&t.moves);
    }
    let per_replay = |n: usize| n as f64 / replays.len().max(1) as f64;
    let per_step = |n: u64| n as f64 / w.steps.max(1) as f64;
    let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let core_step = median(&step_ms);
    vec![
        metric("core.step_ms", core_step, "ms"),
        metric("core.step_ms_p90", quantile(&step_ms, 0.9), "ms"),
        metric(
            "core.residual_ms",
            of(&|s, t| Some(1e3 * (s - t.deposit - t.sort - t.solver))),
            "ms",
        ),
        metric("core.trace_overhead_ms", core_step - plain_step_ms, "ms"),
        metric(
            "core.snapshot_ms",
            of(&|_, t| t.checkpoint.then_some(1e3 * t.snapshot)),
            "ms",
        ),
        metric(
            "core.restore_ms",
            of(&|_, t| t.checkpoint.then_some(1e3 * t.restore)),
            "ms",
        ),
        metric(
            "core.snapshot_mb",
            of(&|_, t| t.checkpoint.then_some(t.snapshot_bytes as f64 / 1e6)),
            "MB",
        ),
        metric("core.checkpoints", w.checkpoints as f64, "count"),
        metric("deposit.host_ms", of(&|_, t| Some(1e3 * t.deposit)), "ms"),
        metric(
            "deposit.host_ns_per_particle",
            of(&|_, t| Some(1e9 * t.deposit / t.particles.max(1) as f64)),
            "ns",
        ),
        metric(
            "deposit.emu_preprocess_ms",
            w.phase_ms(Phase::Preprocess),
            "ms",
        ),
        metric("deposit.emu_compute_ms", w.phase_ms(Phase::Compute), "ms"),
        metric("deposit.emu_reduce_ms", w.phase_ms(Phase::Reduce), "ms"),
        metric(
            "deposit.useful_flop_frac",
            w.useful_flops / w.flops_issued,
            "ratio",
        ),
        metric("deposit.mopa_ops", per_step(w.mopa_ops), "count/step"),
        metric("deposit.vector_ops", per_step(w.vector_ops), "count/step"),
        metric(
            "particles.sort_host_ms",
            of(&|_, t| Some(1e3 * t.sort)),
            "ms",
        ),
        metric("particles.emu_sort_ms", w.phase_ms(Phase::Sort), "ms"),
        metric("particles.global_sorts", w.global_sorts as f64, "count"),
        metric(
            "particles.gpma_moves",
            per_replay(moves.moves_applied),
            "count/step",
        ),
        metric(
            "particles.gpma_rebuilds",
            per_replay(moves.rebuilds),
            "count/step",
        ),
        metric(
            "particles.o1_insert_frac",
            moves.o1_inserts as f64 / moves.insertions.max(1) as f64,
            "ratio",
        ),
        metric("particles.empty_ratio", w.empty_ratio, "ratio"),
        metric("particles.load_s", median(load_s), "s"),
        metric("solver.host_ms", of(&|_, t| Some(1e3 * t.solver)), "ms"),
        metric("solver.emu_ms", w.phase_ms(Phase::FieldSolve), "ms"),
        metric("push.emu_gather_ms", w.phase_ms(Phase::Gather), "ms"),
        metric("push.emu_push_ms", w.phase_ms(Phase::Push), "ms"),
        metric("machine.l1_hit_rate", rate(w.cache[0], w.cache[1]), "ratio"),
        metric("machine.l2_hit_rate", rate(w.cache[2], w.cache[3]), "ratio"),
        metric(
            "machine.streamed_misses",
            per_step(w.cache[4]),
            "count/step",
        ),
        metric("machine.random_misses", per_step(w.cache[5]), "count/step"),
        metric(
            "machine.pool_dispatches",
            per_step(w.dispatches),
            "count/step",
        ),
    ]
}
