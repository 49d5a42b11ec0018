//! `tuner_fleet`: what `g80_core::tuner` and a hill-climber generate. A
//! fleet of tuning jobs searches the matmul variant family (tile × unroll ×
//! prefetch × register tiling) at n = 16 on prebuilt devices.
//!
//! Each job is one tuner process: its in-process memo starts empty, and it
//! shares the disk tier (armed in a fresh directory) with the rest of the
//! fleet. A job runs `g80_core::hill_climb` from every configuration of the
//! family, each evaluation one `Device::launch`, then confirms with the
//! exhaustive sweep as one `launch_batch_traced` on the pool, as
//! `matmul_study::tuner_search` does. Each problem (one input pair) is tuned
//! by `JOBS_PER_PROBLEM` jobs: the first simulates every configuration once
//! and publishes it to disk, the others replay it from disk. Every later
//! evaluation of a configuration within a job is a memo hit. The share of
//! revisits within a job is the tuner's own; the run prints it.

use crate::bench::{
    self, build_kernel, copy_in, copy_out, device_launch, Counters, EndToEnd, Gpu, LayerInputs,
    Opts, Outcome, Tally,
};
use crate::stats::{self, Digest, Samples};
use crate::trace;
use g80_apps::common::max_rel_error;
use g80_apps::matmul::{MatMul, Variant};
use g80_bench::matmul_study::paper_fig4_gflops;
use g80_cuda::{Device, DeviceBuffer};
use g80_isa::{Kernel, Value};
use g80_sim::{KernelStats, LaunchDims, LaunchSpec};
use std::time::Instant;

/// Matrix edge of every launch.
const N: u32 = 16;
/// Jobs of the fleet that tune each problem: the first simulates each
/// configuration, the others replay it from the disk tier. A choice of the
/// workload, not a measurement: with four, the memo and disk tiers take
/// more of the host time than simulation does.
const JOBS_PER_PROBLEM: u64 = 4;
/// The fleet's disk budget, about 1600 entries. The tier fills within the
/// first seconds of a run; from then on compaction evicts the oldest
/// problems' entries as new ones publish, so the run measures the tier in
/// its steady state. Without a budget the directory grows all run, and the
/// launch rate drifted by half within a 15 s run on an ext4-backed 2-core
/// host.
const DISK_CAP_BYTES: u64 = 4 << 20;
/// An evaluation slower than this misses the latency limit.
const EVAL_LIMIT_MS: f64 = 50.0;
/// The run reports the median of its per-window rates, so a host hiccup in
/// one window does not move the result.
const WINDOW_S: f64 = 1.0;
/// Jobs in each half of a traced run (fixed work, so per-layer values
/// compare across commits).
const TRACED_JOBS: u64 = 1_000;
/// Set-up is timed `SETUP_SAMPLES` times, each sample `SETUPS_PER_SAMPLE`
/// set-ups back to back: one set-up takes under a millisecond, and on a
/// shared 2-core host samples shorter than about 100 ms scatter by a
/// quarter.
const SETUP_SAMPLES: usize = 11;
const SETUPS_PER_SAMPLE: usize = 256;

fn family() -> Vec<Variant> {
    let mut v = vec![Variant::Naive];
    for tile in [4u32, 8, 16] {
        for unroll in [false, true] {
            v.push(Variant::Tiled { tile, unroll });
        }
    }
    v.push(Variant::Prefetch { tile: 8 });
    v.push(Variant::Prefetch { tile: 16 });
    v.push(Variant::RegTiled { tile: 16 });
    v
}

/// A configuration's knobs: tile edge (0 untiled) and code shape (plain,
/// unrolled, prefetching, register-tiled).
fn knobs(v: Variant) -> (u32, u32) {
    match v {
        Variant::Naive => (0, 0),
        Variant::Tiled { tile, unroll } => (tile, unroll as u32),
        Variant::Prefetch { tile } => (tile, 2),
        Variant::RegTiled { tile } => (tile, 3),
    }
}

/// The hill-climber's neighbourhood: for each family member, the members
/// one knob away (the next smaller or larger tile of the same code shape,
/// or another code shape at the same tile).
fn neighbourhood(family: &[Variant]) -> Vec<Vec<usize>> {
    let mut tiles: Vec<u32> = family.iter().map(|&v| knobs(v).0).collect();
    tiles.sort_unstable();
    tiles.dedup();
    let step = |t: u32| tiles.iter().position(|&x| x == t).expect("family tile");
    family
        .iter()
        .map(|&v| {
            let (t, shape) = knobs(v);
            (0..family.len())
                .filter(|&j| {
                    let (u, other) = knobs(family[j]);
                    (shape == other && step(t).abs_diff(step(u)) == 1) || (t == u && shape != other)
                })
                .collect()
        })
        .collect()
}

/// One configuration on its own prebuilt device.
struct Config {
    variant: Variant,
    kernel: Kernel,
    dev: Device,
    a: DeviceBuffer<f32>,
    b: DeviceBuffer<f32>,
    c: DeviceBuffer<f32>,
    params: [Value; 3],
}

struct Fleet {
    configs: Vec<Config>,
    neighbours: Vec<Vec<usize>>,
    zeros: Vec<f32>,
    seed: u64,
    disk_dir: std::path::PathBuf,
    kernels_built: u64,
}

fn setup(opts: &Opts, rep: usize) -> Fleet {
    let mm = MatMul { n: N };
    let disk_dir = opts.work_dir.join(format!("disk-{rep}"));
    let _ = std::fs::remove_dir_all(&disk_dir);
    bench::arm_disk(disk_dir.clone(), DISK_CAP_BYTES);
    let elems = (N * N) as usize;
    let variants = family();
    let configs: Vec<Config> = variants
        .iter()
        .map(|&variant| {
            let kernel = build_kernel(|| mm.kernel(variant));
            let mut dev = Device::new(3 * N * N * 4 + 4096);
            let (a, b, c) = (
                dev.alloc::<f32>(elems),
                dev.alloc::<f32>(elems),
                dev.alloc::<f32>(elems),
            );
            Config {
                variant,
                kernel,
                params: [a.as_param(), b.as_param(), c.as_param()],
                dev,
                a,
                b,
                c,
            }
        })
        .collect();
    Fleet {
        kernels_built: configs.len() as u64,
        neighbours: neighbourhood(&variants),
        configs,
        zeros: vec![0.0; elems],
        seed: opts.seed,
        disk_dir,
    }
}

/// The inputs one problem's jobs tune on, and the product they must give.
struct Problem {
    index: u64,
    a: Vec<f32>,
    b: Vec<f32>,
    want: Vec<f32>,
}

impl Problem {
    fn new(seed: u64, index: u64) -> Self {
        let mm = MatMul { n: N };
        let (a, b) = trace::span("apps.generate", || mm.generate(bench::mix(seed, index)));
        let want = trace::span("apps.validate", || mm.cpu_reference(&a, &b));
        Problem { index, a, b, want }
    }
}

/// What the timed jobs produced.
#[derive(Default)]
struct Run {
    tally: Tally,
    /// Evaluation latencies (a bounded subsample) and how many met the
    /// limit.
    eval_ms: Samples,
    in_limit: u64,
    evals: u64,
    jobs: u64,
    problems: Vec<String>,
    /// First statistics seen per configuration; every later launch of the
    /// configuration must match them exactly.
    first: Vec<Option<Digest>>,
    first_stats: Vec<Option<KernelStats>>,
    /// Launches, warp instructions and evaluations within the limit per
    /// second, one entry per `WINDOW_S` window of the timed phase.
    windows: Vec<[f64; 3]>,
}

impl Run {
    fn new(n: usize) -> Self {
        Run {
            first: vec![None; n],
            first_stats: vec![None; n],
            ..Default::default()
        }
    }

    fn latency(&mut self, ms: f64) {
        self.eval_ms.push(ms);
        self.in_limit += (ms <= EVAL_LIMIT_MS) as u64;
    }

    fn check_stats(&mut self, i: usize, stats: &KernelStats) {
        let mut d = Digest::default();
        d.stats(stats);
        match self.first[i] {
            None => {
                self.first[i] = Some(d);
                self.first_stats[i] = Some(stats.clone());
            }
            Some(f) if f != d => self.problems.push(format!(
                "config {i}: statistics {} differ from the first launch's {}",
                d.hex(),
                f.hex()
            )),
            Some(_) => {}
        }
    }
}

/// Uploads the problem's inputs to configuration `i`'s device.
fn stage(fleet: &Fleet, i: usize, p: &Problem, tally: &mut Tally) {
    let c = &fleet.configs[i];
    copy_in(&c.dev, &c.a, &p.a, tally);
    copy_in(&c.dev, &c.b, &p.b, tally);
    copy_in(&c.dev, &c.c, &fleet.zeros, tally);
}

fn validate(run: &mut Run, fleet: &Fleet, i: usize, want: &[f32]) {
    let c = &fleet.configs[i];
    let got = copy_out(&c.dev, &c.c, &mut run.tally);
    let err = trace::span("apps.validate", || max_rel_error(&got, want));
    run.evals += 1;
    if err.is_nan() || err > 1e-5 {
        run.problems
            .push(format!("{}: error {err:e} above 1e-5", c.variant.label()));
    }
}

fn dims(v: Variant) -> LaunchDims {
    let t = v.block_edge();
    let (bx, by) = v.block_shape();
    LaunchDims {
        grid: (N / t, N / t),
        block: (bx, by, 1),
    }
}

/// One hill-climber evaluation: configuration `i` on the problem's inputs.
fn evaluate(fleet: &Fleet, run: &mut Run, p: &Problem, i: usize) -> KernelStats {
    let t0 = Instant::now();
    let stats = trace::group("eval", || {
        let c = &fleet.configs[i];
        stage(fleet, i, p, &mut run.tally);
        let d = dims(c.variant);
        match device_launch(
            &c.dev,
            &c.kernel,
            d.grid,
            d.block,
            &c.params,
            &mut run.tally,
        ) {
            Ok(stats) => {
                run.check_stats(i, &stats);
                validate(run, fleet, i, &p.want);
                stats
            }
            Err(e) => {
                run.evals += 1;
                run.problems.push(format!("{}: {e}", c.variant.label()));
                // The climb needs a score; the run is already failed.
                run.first_stats
                    .iter()
                    .flatten()
                    .next()
                    .cloned()
                    .unwrap_or_else(|| panic!("no launch of the family succeeded: {e}"))
            }
        }
    });
    run.latency(t0.elapsed().as_secs_f64() * 1e3);
    stats
}

/// The confirming exhaustive sweep: every configuration at once, one pooled
/// batch.
fn sweep(fleet: &Fleet, run: &mut Run, p: &Problem) {
    let n = fleet.configs.len();
    let t0 = Instant::now();
    trace::group("sweep", || {
        for i in 0..n {
            stage(fleet, i, p, &mut run.tally);
        }
        let specs: Vec<LaunchSpec> = fleet
            .configs
            .iter()
            .map(|c| LaunchSpec {
                kernel: &c.kernel,
                dims: dims(c.variant),
                params: &c.params,
                mem: c.dev.memory(),
            })
            .collect();
        let cfg = fleet.configs[0].dev.config();
        let results = trace::span("pool.batch", || g80_sim::launch_batch_traced(cfg, &specs));
        run.tally.batch_launches += n as u64;
        for (i, res) in results.into_iter().enumerate() {
            match res {
                Ok((stats, served)) => {
                    run.tally.served(&stats, served);
                    run.check_stats(i, &stats);
                    validate(run, fleet, i, &p.want);
                }
                Err(e) => {
                    run.evals += 1;
                    run.problems.push(format!("batch launch {i}: {e}"));
                }
            }
        }
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    for _ in 0..n {
        run.latency(ms);
    }
}

/// One tuning job on problem `p`: a hill climb from every configuration,
/// then the sweep.
fn job(fleet: &Fleet, run: &mut Run, p: &Problem) {
    // A new tuner process: nothing in memory, the fleet's disk tier shared.
    g80_sim::clear_memo_cache();
    for start in 0..fleet.configs.len() {
        g80_core::hill_climb(
            start,
            |&i| fleet.neighbours[i].clone(),
            |&i| evaluate(fleet, run, p, i),
        );
    }
    sweep(fleet, run, p);
    run.jobs += 1;
}

/// Runs jobs `from..` until `done(jobs_run, elapsed)`; returns the elapsed
/// seconds.
fn jobs(fleet: &Fleet, run: &mut Run, from: u64, done: impl Fn(u64, f64) -> bool) -> f64 {
    let t0 = Instant::now();
    let mut k = 0;
    let mut problem: Option<Problem> = None;
    let mut mark = (0.0, run.tally.launches, run.tally.winst, run.in_limit);
    while !done(k, t0.elapsed().as_secs_f64()) {
        let index = (from + k) / JOBS_PER_PROBLEM;
        if problem.as_ref().map(|p| p.index) != Some(index) {
            problem = Some(Problem::new(fleet.seed, index));
        }
        job(fleet, run, problem.as_ref().expect("set above"));
        k += 1;
        let t = t0.elapsed().as_secs_f64();
        if t - mark.0 >= WINDOW_S {
            let dt = t - mark.0;
            run.windows.push([
                (run.tally.launches - mark.1) as f64 / dt,
                (run.tally.winst - mark.2) as f64 / dt,
                (run.in_limit - mark.3) as f64 / dt,
            ]);
            mark = (t, run.tally.launches, run.tally.winst, run.in_limit);
        }
    }
    t0.elapsed().as_secs_f64()
}

pub fn run(opts: &Opts) -> Outcome {
    let mut setup_spans = Vec::new();
    let last = SETUP_SAMPLES * SETUPS_PER_SAMPLE - 1;
    let (setup_s, fleet) = bench::repeat_setup(SETUP_SAMPLES, SETUPS_PER_SAMPLE, |i| {
        trace::set_enabled(opts.trace && i == last);
        let f = setup(opts, i);
        trace::set_enabled(false);
        setup_spans = trace::take();
        f
    });
    let n = fleet.configs.len();

    let mut run = Run::new(n);
    let mut spans = Vec::new();
    let mut layer_in = None;
    let wall = if !opts.trace {
        let secs = opts.seconds;
        jobs(&fleet, &mut run, 0, |_, t| t >= secs)
    } else {
        let traced_jobs = if opts.tiny { 4 } else { TRACED_JOBS };
        let untraced = jobs(&fleet, &mut run, 0, |k, _| k >= traced_jobs);
        let mut traced_run = Run::new(n);
        traced_run.first = run.first.clone();
        let before = Counters::now();
        trace::set_enabled(true);
        let mut wall = 0.0;
        trace::group("phase", || {
            wall = jobs(&fleet, &mut traced_run, traced_jobs, |k, _| {
                k >= traced_jobs
            });
        });
        trace::set_enabled(false);
        layer_in = Some((Counters::now().since(&before), traced_run, wall / untraced));
        spans = std::mem::take(&mut setup_spans);
        spans.extend(trace::take());
        untraced
    };
    println!(
        "traffic: {} jobs, {:.1} evaluations per job over {n} configurations ({:.4} of them revisits)",
        run.jobs,
        run.evals as f64 / run.jobs.max(1) as f64,
        1.0 - (n as u64 * run.jobs) as f64 / run.evals.max(1) as f64,
    );

    let mut problems = run.problems.clone();
    let (mut attempted, mut failed) = (run.evals, run.problems.len() as u64);
    if let Some((_, t, _)) = &layer_in {
        attempted += t.evals;
        failed += t.problems.len() as u64;
        problems.extend(t.problems.iter().cloned());
    }

    // The digest unit: every configuration's statistics, in family order.
    let mut gpu = Gpu::default();
    let mut errs = Vec::new();
    for (c, s) in fleet.configs.iter().zip(&run.first_stats) {
        let Some(s) = s else {
            failed += 1;
            problems.push(format!("{} never launched", c.variant.label()));
            continue;
        };
        gpu.add(s);
        if let Some(paper) = paper_fig4_gflops(&c.variant.label()) {
            errs.push((s.gflops() / paper - 1.0).abs());
        }
    }
    let fig4_err_pct = 100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64;

    let rate = |i: usize, total: u64| {
        if run.windows.is_empty() {
            total as f64 / wall
        } else {
            stats::median(&run.windows.iter().map(|w| w[i]).collect::<Vec<_>>())
        }
    };
    let e2e = bench::end_to_end_metrics(&EndToEnd {
        setup_s: setup_s.clone(),
        launches_per_s: rate(0, run.tally.launches),
        winst_per_s: rate(1, run.tally.winst),
        goodput: rate(2, run.in_limit),
        latencies_ms: run.eval_ms.values().to_vec(),
        fig4_err_pct,
        attempted,
        failed,
    });

    let layer = layer_in.map(|(counters, traced, overhead)| {
        bench::layer_metrics(
            &LayerInputs {
                spans: &spans,
                counters,
                tally: traced.tally,
                kernels_built: fleet.kernels_built,
                gpu: &gpu,
                overhead,
                root: "phase",
                failed_frac: failed as f64 / attempted.max(1) as f64,
                setup_samples: setup_s.len(),
                timed_samples: traced.evals as usize,
            },
            &[],
        )
    });

    // Leave only the last set-up's directory behind for removal.
    let _ = std::fs::remove_dir_all(&fleet.disk_dir);
    Outcome {
        e2e,
        layer,
        attempted,
        failed,
        digest: gpu.digest.hex(),
        problems,
        spans,
    }
}
