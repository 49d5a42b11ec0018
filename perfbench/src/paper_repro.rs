//! `paper_repro`: what a researcher runs. One pass does the work of the
//! full-scale `repro table3` (twelve applications plus the matmul row),
//! `repro fig4` (n = 192) and the Section 4 walk with its register cliff
//! (n = 256), through the crates' public calls, with the launch memo
//! cleared before every pass so every launch simulates.

use crate::bench::{
    self, build_kernel, copy_in, copy_out, device_launch, EndToEnd, Gpu, LayerInputs, Opts,
    Outcome, Tally,
};
use crate::stats::{self, Digest};
use crate::trace;
use g80_apps::common::{max_rel_error, rms_rel_error};
use g80_apps::matmul::{MatMul, Variant};
use g80_apps::{cp, fdtd, fem, lbm, mrifhd, mriq, pns, rc5, rpes, sad, saxpy, tpacf};
use g80_bench::matmul_study::paper_fig4_gflops;
use g80_cuda::{BatchLaunch, Device, DeviceBuffer, Timeline};
use g80_isa::{Kernel, Space, Value};
use g80_sim::{GpuConfig, KernelStats};
use std::time::Instant;

/// An item slower than this misses the latency limit.
const ITEM_LIMIT_MS: f64 = 10_000.0;

struct Sizes {
    fig4_n: u32,
    sec4_n: u32,
    row_n: u32,
}

/// Every generated input and every kernel the benchmark launches itself.
struct Inputs {
    sad: (sad::SadApp, Vec<u32>, Vec<u32>),
    lbm: (lbm::Lbm, Vec<f32>),
    rc5: rc5::Rc5,
    fem: (fem::Fem, fem::Mesh),
    rpes: (rpes::Rpes, Vec<f32>),
    pns: pns::Pns,
    saxpy: (saxpy::Saxpy, Vec<f32>, Vec<f32>),
    tpacf: (tpacf::Tpacf, tpacf::SkyData),
    fdtd: (fdtd::Fdtd, fdtd::Fields),
    mriq: (mriq::MriQ, mriq::MriqData),
    mrifhd: (mrifhd::MriFhd, mrifhd::FhdData),
    cp: (cp::CoulombicPotential, Vec<cp::Atom>),
    row: MatInputs,
    fig4: MatInputs,
    sec4: MatInputs,
    /// Register-cliff kernels: the rolled 16x16 tiled kernel forced to 10
    /// and 11 registers.
    cliff: Vec<(u32, Kernel)>,
    kernels_built: u64,
}

struct MatInputs {
    mm: MatMul,
    a: Vec<f32>,
    b: Vec<f32>,
    kernels: Vec<(Variant, Kernel)>,
}

fn fig4_variants() -> Vec<Variant> {
    let mut v = vec![Variant::Naive];
    for tile in [4u32, 8, 12, 16] {
        v.push(Variant::Tiled {
            tile,
            unroll: false,
        });
        v.push(Variant::Tiled { tile, unroll: true });
    }
    v.push(Variant::RegTiled { tile: 16 });
    v
}

fn sec4_variants() -> Vec<Variant> {
    vec![
        Variant::Naive,
        Variant::Tiled {
            tile: 16,
            unroll: false,
        },
        Variant::Tiled {
            tile: 16,
            unroll: true,
        },
        Variant::Prefetch { tile: 16 },
    ]
}

fn mat_inputs(n: u32, seed: u64, variants: Vec<Variant>, built: &mut u64) -> MatInputs {
    let mm = MatMul { n };
    let (a, b) = trace::span("apps.generate", || mm.generate(seed));
    let kernels = variants
        .into_iter()
        .map(|v| {
            *built += 1;
            (v, build_kernel(|| mm.kernel(v)))
        })
        .collect();
    MatInputs { mm, a, b, kernels }
}

/// Generates every input from the seed and builds every kernel.
fn setup(seed: u64, tiny: bool) -> Inputs {
    let s = |salt| bench::mix(seed, salt);
    let gen = |f: &mut dyn FnMut()| trace::span("apps.generate", f);
    let mut built = 0u64;
    let mut k = |f: &dyn Fn() -> Kernel| {
        built += 1;
        build_kernel(f);
    };
    let full = !tiny;

    let sad_app = if full {
        sad::SadApp::default()
    } else {
        sad::SadApp {
            width: 64,
            height: 48,
        }
    };
    let mut sad_in = None;
    gen(&mut || sad_in = Some(sad_app.generate(s(1))));
    k(&|| sad_app.kernel(Space::Tex));
    let (cur, reff) = sad_in.expect("generated");

    let lbm_app = if full {
        lbm::Lbm { n: 128, steps: 8 }
    } else {
        lbm::Lbm { n: 64, steps: 2 }
    };
    let mut f0 = Vec::new();
    gen(&mut || f0 = lbm_app.initial_state());
    k(&|| lbm_app.kernel(lbm::Layout::SoaStaged));

    let key = s(3);
    let rc5_app = rc5::Rc5 {
        n_keys: if full { 1 << 16 } else { 1 << 12 },
        // Keep the low key word below 2^31 so the range cannot carry.
        base_key: (key & 0xffff_ffff_0000_0000) | (key & 0x7fff_0000),
        plaintext: (s(4) as u32, (s(4) >> 32) as u32),
    };
    k(&|| rc5_app.kernel(false));

    let fem_app = fem::Fem {
        n_nodes: if full { 1 << 15 } else { 1 << 13 },
        sweeps: if full { 8 } else { 2 },
    };
    let mut mesh = None;
    gen(&mut || mesh = Some(fem_app.generate(s(5))));
    k(&|| fem_app.kernel());

    let rpes_app = rpes::Rpes {
        n: if full { 1 << 15 } else { 1 << 13 },
    };
    let mut ts = Vec::new();
    gen(&mut || ts = rpes_app.generate(s(6)));
    k(&|| rpes_app.kernel());

    let pns_app = pns::Pns {
        n_threads: if full { 1 << 14 } else { 1 << 12 },
        steps: if full { 256 } else { 64 },
        snap_every: 32,
    };
    k(&|| pns_app.kernel());

    let saxpy_app = saxpy::Saxpy {
        n: if full { 1 << 20 } else { 1 << 17 },
        alpha: 2.5,
    };
    let mut xy = None;
    gen(&mut || xy = Some(saxpy_app.generate(s(8))));
    k(&|| saxpy_app.kernel());
    let (x, y) = xy.expect("generated");

    let tpacf_app = tpacf::Tpacf {
        n: if full { 2048 } else { 512 },
    };
    let mut sky = None;
    gen(&mut || sky = Some(tpacf_app.generate(s(9))));
    k(&|| tpacf_app.kernel());

    let fdtd_app = fdtd::Fdtd {
        n: if full { 256 } else { 128 },
        steps: if full { 8 } else { 2 },
    };
    let mut fields = None;
    gen(&mut || fields = Some(fdtd_app.initial_state()));
    k(&|| fdtd_app.h_kernel());
    k(&|| fdtd_app.e_kernel());

    let mriq_app = mriq::MriQ {
        n_voxels: if full { 1 << 15 } else { 1 << 12 },
        n_k: if full { 1024 } else { 256 },
    };
    let mut mriq_in = None;
    gen(&mut || mriq_in = Some(mriq_app.generate(s(11))));
    k(&|| mriq_app.kernel(true));

    let mrifhd_app = mrifhd::MriFhd {
        n_voxels: if full { 1 << 15 } else { 1 << 12 },
        n_k: if full { 1024 } else { 256 },
    };
    let mut fhd_in = None;
    gen(&mut || fhd_in = Some(mrifhd_app.generate(s(12))));
    k(&|| mrifhd_app.kernel());

    let cp_app = cp::CoulombicPotential {
        grid: if full { 256 } else { 64 },
        n_atoms: if full { 128 } else { 64 },
        spacing: 0.5,
    };
    let mut atoms = Vec::new();
    gen(&mut || atoms = cp_app.generate(s(13)));
    k(&|| cp_app.kernel(true));

    let sizes = sizes(tiny);
    let row = mat_inputs(
        sizes.row_n,
        s(14),
        vec![Variant::Tiled {
            tile: 16,
            unroll: true,
        }],
        &mut built,
    );
    let fig4 = mat_inputs(sizes.fig4_n, s(15), fig4_variants(), &mut built);
    let sec4 = mat_inputs(sizes.sec4_n, s(16), sec4_variants(), &mut built);
    let rolled = Variant::Tiled {
        tile: 16,
        unroll: false,
    };
    let cliff = [10u32, 11]
        .into_iter()
        .map(|regs| {
            built += 1;
            let mm = sec4.mm;
            (
                regs,
                build_kernel(|| mm.kernel(rolled).with_forced_regs(regs)),
            )
        })
        .collect();

    Inputs {
        sad: (sad_app, cur, reff),
        lbm: (lbm_app, f0),
        rc5: rc5_app,
        fem: (fem_app, mesh.expect("generated")),
        rpes: (rpes_app, ts),
        pns: pns_app,
        saxpy: (saxpy_app, x, y),
        tpacf: (tpacf_app, sky.expect("generated")),
        fdtd: (fdtd_app, fields.expect("generated")),
        mriq: (mriq_app, mriq_in.expect("generated")),
        mrifhd: (mrifhd_app, fhd_in.expect("generated")),
        cp: (cp_app, atoms),
        row,
        fig4,
        sec4,
        cliff,
        kernels_built: built,
    }
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            fig4_n: 48,
            sec4_n: 64,
            row_n: 64,
        }
    } else {
        Sizes {
            fig4_n: 192,
            sec4_n: 256,
            row_n: 256,
        }
    }
}

/// What one pass produced.
#[derive(Default)]
struct Pass {
    tally: Tally,
    gpu: Gpu,
    item_ms: Vec<f64>,
    problems: Vec<String>,
    items: u64,
    fig4_err_pct: f64,
}

impl Pass {
    fn check(&mut self, what: &str, err: f32, tol: f32) {
        self.items += 1;
        if err.is_nan() || err > tol {
            self.problems
                .push(format!("{what}: error {err:e} above tolerance {tol:e}"));
        }
    }

    /// Runs one application through its own `run()`, then validates against
    /// its CPU reference within the application's tolerance.
    fn app<T>(
        &mut self,
        name: &str,
        tol: f32,
        run: impl FnOnce() -> (T, KernelStats, Timeline),
        error: impl FnOnce(&T) -> f32,
    ) {
        let (out, stats, timeline) = trace::span("apps.run", run);
        self.tally.app_run(&stats, &timeline);
        self.gpu.add(&stats);
        trace::span("core.analysis", || {
            std::hint::black_box(g80_core::estimate(&GpuConfig::geforce_8800_gtx(), &stats))
        });
        let err = trace::span("apps.validate", || error(&out));
        self.check(name, err, tol);
    }
}

fn exact<T: PartialEq>(got: &[T], want: &[T]) -> f32 {
    if got == want {
        0.0
    } else {
        1.0
    }
}

/// A matmul device with A and B uploaded and C allocated.
struct MatDev {
    dev: Device,
    c: DeviceBuffer<f32>,
    params: [Value; 3],
}

fn mat_device(inp: &MatInputs, tally: &mut Tally) -> MatDev {
    let n = inp.mm.n;
    let elems = (n * n) as usize;
    let mut dev = Device::new(3 * n * n * 4 + 4096);
    let a = dev.alloc::<f32>(elems);
    let b = dev.alloc::<f32>(elems);
    let c = dev.alloc::<f32>(elems);
    copy_in(&dev, &a, &inp.a, tally);
    copy_in(&dev, &b, &inp.b, tally);
    MatDev {
        params: [a.as_param(), b.as_param(), c.as_param()],
        dev,
        c,
    }
}

fn grid_of(n: u32, v: Variant) -> ((u32, u32), (u32, u32, u32)) {
    let t = v.block_edge();
    let (bx, by) = v.block_shape();
    ((n / t, n / t), (bx, by, 1))
}

/// Launches one matmul kernel on its own device and validates C.
fn matmul_launch(
    pass: &mut Pass,
    inp: &MatInputs,
    v: Variant,
    k: &Kernel,
    want: &[f32],
) -> Option<KernelStats> {
    let md = mat_device(inp, &mut pass.tally);
    let (grid, block) = grid_of(inp.mm.n, v);
    match device_launch(&md.dev, k, grid, block, &md.params, &mut pass.tally) {
        Ok(stats) => {
            pass.gpu.add(&stats);
            let c = copy_out(&md.dev, &md.c, &mut pass.tally);
            let err = trace::span("apps.validate", || max_rel_error(&c, want));
            pass.check(&format!("matmul {} n={}", v.label(), inp.mm.n), err, 1e-5);
            Some(stats)
        }
        Err(e) => {
            pass.items += 1;
            pass.problems.push(format!("matmul {}: {e}", v.label()));
            None
        }
    }
}

/// Times one item of a pass from its start (each item is due when the
/// previous one completes).
fn item(pass: &mut Pass, f: impl FnOnce(&mut Pass)) {
    let t0 = Instant::now();
    trace::group("item", || f(pass));
    pass.item_ms.push(t0.elapsed().as_secs_f64() * 1e3);
}

fn run_pass(inp: &Inputs) -> Pass {
    g80_sim::clear_memo_cache();
    let mut pass = Pass::default();
    let cfg = GpuConfig::geforce_8800_gtx();

    // Table 3: the twelve applications.
    item(&mut pass, |p| {
        let (app, cur, reff) = &inp.sad;
        p.app(
            "sad",
            0.0,
            || app.run(cur, reff, true),
            |got| exact(got, &app.cpu_reference(cur, reff)),
        );
    });
    item(&mut pass, |p| {
        let (app, f0) = &inp.lbm;
        p.app(
            "lbm",
            1e-4,
            || app.run(f0, lbm::Layout::SoaStaged),
            |got| rms_rel_error(got, &app.cpu_reference(f0)),
        );
    });
    item(&mut pass, |p| {
        let app = &inp.rc5;
        p.app(
            "rc5",
            0.0,
            || app.run(false),
            |got| exact(got, &app.cpu_reference()),
        );
    });
    item(&mut pass, |p| {
        let (app, mesh) = &inp.fem;
        p.app(
            "fem",
            1e-5,
            || app.run(mesh),
            |got| rms_rel_error(got, &app.cpu_reference(mesh)),
        );
    });
    item(&mut pass, |p| {
        let (app, ts) = &inp.rpes;
        p.app(
            "rpes",
            1e-2,
            || app.run(ts),
            |got| rms_rel_error(got, &app.cpu_reference(ts)),
        );
    });
    item(&mut pass, |p| {
        let app = &inp.pns;
        p.app(
            "pns",
            0.0,
            || app.run(),
            |got| exact(got, &app.cpu_reference()),
        );
    });
    item(&mut pass, |p| {
        let (app, x, y) = &inp.saxpy;
        p.app(
            "saxpy",
            0.0,
            || app.run(x, y),
            |got| exact(got, &app.cpu_reference(x, y)),
        );
    });
    item(&mut pass, |p| {
        let (app, sky) = &inp.tpacf;
        p.app(
            "tpacf",
            0.0,
            || app.run(sky),
            |got| exact(got, &app.cpu_reference(sky)),
        );
    });
    item(&mut pass, |p| {
        let (app, f0) = &inp.fdtd;
        p.app(
            "fdtd",
            1e-5,
            || app.run(f0),
            |got| {
                let want = app.cpu_reference(f0);
                rms_rel_error(&got.ez, &want.ez)
                    .max(rms_rel_error(&got.hx, &want.hx))
                    .max(rms_rel_error(&got.hy, &want.hy))
            },
        );
    });
    item(&mut pass, |p| {
        let (app, d) = &inp.mriq;
        p.app(
            "mri-q",
            1e-3,
            || {
                let (qr, qi, s, t) = app.run(d, true);
                ((qr, qi), s, t)
            },
            |(qr, qi)| {
                let (wr, wi) = app.cpu_reference(d);
                rms_rel_error(qr, &wr).max(rms_rel_error(qi, &wi))
            },
        );
    });
    item(&mut pass, |p| {
        let (app, d) = &inp.mrifhd;
        p.app(
            "mri-fhd",
            1e-3,
            || {
                let (rf, fi, s, t) = app.run(d);
                ((rf, fi), s, t)
            },
            |(rf, fi)| {
                let (wr, wi) = app.cpu_reference(d);
                rms_rel_error(rf, &wr).max(rms_rel_error(fi, &wi))
            },
        );
    });
    item(&mut pass, |p| {
        let (app, atoms) = &inp.cp;
        p.app(
            "cp",
            2e-4,
            || app.run(atoms, true),
            |got| max_rel_error(got, &app.cpu_reference(atoms)),
        );
    });

    // Table 3's matmul row.
    item(&mut pass, |p| {
        let want = trace::span("apps.validate", || {
            inp.row.mm.cpu_reference(&inp.row.a, &inp.row.b)
        });
        let (v, k) = &inp.row.kernels[0];
        if let Some(stats) = matmul_launch(p, &inp.row, *v, k, &want) {
            trace::span("core.analysis", || {
                std::hint::black_box(g80_core::estimate(&cfg, &stats))
            });
        }
    });

    // Figure 4: every configuration as one batch on the pool.
    item(&mut pass, |p| {
        let f = &inp.fig4;
        let want = trace::span("apps.validate", || f.mm.cpu_reference(&f.a, &f.b));
        let devs: Vec<MatDev> = f
            .kernels
            .iter()
            .map(|_| mat_device(f, &mut p.tally))
            .collect();
        let entries: Vec<BatchLaunch> = f
            .kernels
            .iter()
            .zip(&devs)
            .map(|((v, k), md)| {
                let (grid, block) = grid_of(f.mm.n, *v);
                BatchLaunch {
                    device: &md.dev,
                    kernel: k,
                    grid,
                    block,
                    params: &md.params,
                }
            })
            .collect();
        let results = trace::span("pool.batch", || g80_cuda::launch_batch(&entries));
        p.tally.batch_launches += entries.len() as u64;
        for (((v, k), md), r) in f.kernels.iter().zip(&devs).zip(results) {
            match r {
                Ok(stats) => {
                    let t = md.dev.timeline();
                    p.tally.app_run(&stats, &t);
                    p.gpu.add(&stats);
                    let (sx, sy) = v.block_shape();
                    trace::span("core.analysis", || {
                        std::hint::black_box(g80_core::kernel_occupancy(&cfg, k, sx * sy))
                    });
                    let c = copy_out(&md.dev, &md.c, &mut p.tally);
                    let err = trace::span("apps.validate", || max_rel_error(&c, &want));
                    p.check(&format!("fig4 {}", v.label()), err, 1e-5);
                }
                Err(e) => {
                    p.items += 1;
                    p.problems.push(format!("fig4 {}: {e}", v.label()));
                }
            }
        }
    });

    // Section 4: the optimization walk, one launch per step, with the
    // potential-throughput estimate and advisor at each step.
    let want = trace::span("apps.validate", || {
        inp.sec4.mm.cpu_reference(&inp.sec4.a, &inp.sec4.b)
    });
    let mut errs = Vec::new();
    for (v, k) in &inp.sec4.kernels {
        item(&mut pass, |p| {
            if let Some(stats) = matmul_launch(p, &inp.sec4, *v, k, &want) {
                trace::span("core.analysis", || {
                    std::hint::black_box((
                        g80_core::estimate(&cfg, &stats),
                        g80_core::advise(&cfg, &stats),
                    ))
                });
                if let Some(paper) = paper_fig4_gflops(&v.label()) {
                    errs.push((stats.gflops() / paper - 1.0).abs());
                }
            }
        });
    }
    pass.fig4_err_pct = 100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64;

    // Section 4.2 register cliff: both forced-register kernels as a batch.
    item(&mut pass, |p| {
        let s = &inp.sec4;
        let devs: Vec<MatDev> = inp
            .cliff
            .iter()
            .map(|_| mat_device(s, &mut p.tally))
            .collect();
        let rolled = Variant::Tiled {
            tile: 16,
            unroll: false,
        };
        let (grid, block) = grid_of(s.mm.n, rolled);
        let entries: Vec<BatchLaunch> = inp
            .cliff
            .iter()
            .zip(&devs)
            .map(|((_, k), md)| BatchLaunch {
                device: &md.dev,
                kernel: k,
                grid,
                block,
                params: &md.params,
            })
            .collect();
        let results = trace::span("pool.batch", || g80_cuda::launch_batch(&entries));
        p.tally.batch_launches += entries.len() as u64;
        for (((regs, _), md), r) in inp.cliff.iter().zip(&devs).zip(results) {
            match r {
                Ok(stats) => {
                    p.tally.app_run(&stats, &md.dev.timeline());
                    p.gpu.add(&stats);
                    trace::span("core.analysis", || {
                        std::hint::black_box(g80_core::estimate(&cfg, &stats))
                    });
                    let c = copy_out(&md.dev, &md.c, &mut p.tally);
                    let err = trace::span("apps.validate", || max_rel_error(&c, &want));
                    p.check(&format!("cliff {regs} regs"), err, 1e-5);
                }
                Err(e) => {
                    p.items += 1;
                    p.problems.push(format!("cliff {regs} regs: {e}"));
                }
            }
        }
    });
    pass
}

pub fn run(opts: &Opts) -> Outcome {
    // One set-up takes about 30 ms: each sample times four in a row.
    const SETUP_SAMPLES: usize = 11;
    const SETUPS_PER_SAMPLE: usize = 4;
    let mut setup_spans = Vec::new();
    let last = SETUP_SAMPLES * SETUPS_PER_SAMPLE - 1;
    let (setup_s, inputs) = bench::repeat_setup(SETUP_SAMPLES, SETUPS_PER_SAMPLE, |i| {
        // Trace only the last set-up, whose inputs the passes use.
        trace::set_enabled(opts.trace && i == last);
        let inp = setup(opts.seed, opts.tiny);
        trace::set_enabled(false);
        setup_spans = trace::take();
        inp
    });

    let mut passes: Vec<(f64, Pass)> = Vec::new();
    let mut traced: Option<(f64, Pass, bench::Counters, Vec<trace::Span>)> = None;
    // Whole passes only: at least three untraced ones at full scale (so each
    // item's median survives one disturbed pass), more while another fits in
    // `--seconds`. A traced run makes one untraced pass to compare with.
    let min_passes = if opts.trace || opts.tiny { 1 } else { 3 };
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let pass = run_pass(&inputs);
        passes.push((t0.elapsed().as_secs_f64(), pass));
        let elapsed = started.elapsed().as_secs_f64();
        let last = passes.last().map_or(0.0, |p| p.0);
        if passes.len() >= min_passes && (opts.trace || elapsed + last > opts.seconds) {
            break;
        }
    }
    if opts.trace {
        // One more pass, traced, after the untraced one.
        let before = bench::Counters::now();
        trace::set_enabled(true);
        let t0 = Instant::now();
        let pass = trace::group("pass", || run_pass(&inputs));
        let wall = t0.elapsed().as_secs_f64();
        trace::set_enabled(false);
        let counters = bench::Counters::now().since(&before);
        traced = Some((wall, pass, counters, trace::take()));
    }

    // Every pass ran the same launches on the same inputs: the simulated
    // statistics must repeat exactly.
    let mut problems: Vec<String> = Vec::new();
    let reference: Digest = passes[0].1.gpu.digest;
    let all: Vec<&Pass> = passes
        .iter()
        .map(|(_, p)| p)
        .chain(traced.as_ref().map(|t| &t.1))
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for p in &all {
        attempted += p.items;
        failed += p.problems.len() as u64;
        problems.extend(p.problems.iter().cloned());
        if p.gpu.digest != reference {
            failed += 1;
            problems.push(format!(
                "pass digest {} differs from the first pass's {}",
                p.gpu.digest.hex(),
                reference.hex()
            ));
        }
    }

    // Throughput of the median pass: each item's median time over the
    // passes, so a host hiccup during one item of one pass does not move
    // the result. Every pass ran the same launches (the digest check above),
    // so its work is the first pass's. Latency percentiles pool every item
    // of every pass: the median item alone flips between neighbouring items.
    let first = &passes[0].1;
    let item_ms: Vec<f64> = (0..first.item_ms.len())
        .map(|i| stats::median(&passes.iter().map(|(_, p)| p.item_ms[i]).collect::<Vec<_>>()))
        .collect();
    let median_pass_s = item_ms.iter().sum::<f64>() / 1e3;
    let e2e = bench::end_to_end_metrics(&EndToEnd {
        setup_s: setup_s.clone(),
        winst_per_s: first.tally.winst as f64 / median_pass_s,
        launches_per_s: first.tally.launches as f64 / median_pass_s,
        goodput: item_ms.iter().filter(|&&ms| ms <= ITEM_LIMIT_MS).count() as f64 / median_pass_s,
        latencies_ms: passes.iter().flat_map(|(_, p)| p.item_ms.clone()).collect(),
        fig4_err_pct: first.fig4_err_pct,
        attempted,
        failed,
    });

    let mut spans = Vec::new();
    let layer = traced.map(|(wall, pass, counters, pass_spans)| {
        let untraced = stats::median(&passes.iter().map(|(w, _)| *w).collect::<Vec<_>>());
        spans = setup_spans;
        spans.extend(pass_spans);
        bench::layer_metrics(
            &LayerInputs {
                spans: &spans,
                counters,
                tally: pass.tally,
                kernels_built: inputs.kernels_built,
                gpu: &pass.gpu,
                overhead: wall / untraced,
                root: "pass",
                failed_frac: failed as f64 / attempted.max(1) as f64,
                setup_samples: setup_s.len(),
                timed_samples: passes.len() + 1,
            },
            &[],
        )
    });

    Outcome {
        e2e,
        layer,
        attempted,
        failed,
        digest: reference.hex(),
        problems,
        spans,
    }
}
