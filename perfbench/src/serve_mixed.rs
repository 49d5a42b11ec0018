//! `serve_mixed`: the `g80-serve` path. An in-process daemon listens on a
//! unix socket; two client connections, one generator thread each, run an
//! open loop at one fixed offered rate. Most requests are small probe
//! launches carrying a 32 KiB memory image, fifteen in sixteen of which
//! repeat a hot image (memo replays); one request in five is a medium
//! matmul launch on fresh inputs that occupies the pool and builds a queue. Every request is timed from when it was due, so a stall shows in
//! the latency of the requests queued behind it.

use crate::bench::{self, Counters, EndToEnd, Gpu, LayerInputs, Opts, Outcome, Tally};
use crate::stats::{self, Digest};
use crate::trace::{self, Ctx};
use g80_apps::matmul::{MatMul, Variant};
use g80_bench::matmul_study::paper_fig4_gflops;
use g80_isa::builder::KernelBuilder;
use g80_isa::{Kernel, Value};
use g80_serve::{Addr, Client, Request, Response, ServeConfig, Server, WireError, WireLaunch};
use g80_sim::{DeviceMemory, GpuConfig, KernelStats, LaunchDims, LaunchReport, Memo, Served};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Offered load, requests per second across both connections: about a
/// seventh of the knee measured on a 2-core host, where p50 triples near
/// 600 req/s and p90 doubles by 800 req/s (see `perfbench/baseline.json`).
pub const RATE_PER_S: f64 = 100.0;
/// A request slower than this (from its due time) misses the limit.
pub const LIMIT_MS: f64 = 50.0;
/// Generator connections (one thread each).
const CONNECTIONS: usize = 2;
/// One request in this many is a medium matmul launch. The mix puts each
/// gated percentile inside one class of requests: p50 among the memo-hit
/// probes, p90 among the medium launches.
const MEDIUM_EVERY: u64 = 5;
/// Of the probes, this many in `PROBE_CYCLE` repeat a hot image.
const REPEAT_OF_CYCLE: u64 = 15;
const PROBE_CYCLE: u64 = 16;
/// Distinct hot probe images (memo entries the repeats hit).
const HOT_IMAGES: usize = 16;
/// Probe launch shape: 64 blocks of 128 threads, one word each (32 KiB).
const PROBE_GRID: u32 = 64;
const PROBE_BLOCK: u32 = 128;
/// Matrix edge of the medium launches.
const MEDIUM_N: u32 = 48;
/// The digest covers the statistics of the first requests of the schedule.
const DIGEST_REQUESTS: u64 = 200;
/// Every this-many-th request of the digest window is re-run in process and
/// compared with the daemon's answer. Seven is prime to both class periods
/// (`MEDIUM_EVERY`, `PROBE_CYCLE`), so the sample holds hot probes, fresh
/// probes and medium launches.
const CHECK_EVERY: u64 = 7;
/// A run whose generator sent its p90 request later than this (beyond its
/// due time and the previous response) fell behind its schedule.
const GEN_LATE_LIMIT_MS: f64 = 10.0;

fn probe_kernel(k: usize) -> Kernel {
    let mut b = KernelBuilder::new(&format!("serve_probe_{k}"));
    let p = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let addr = b.iadd(byte, p);
    let v = b.ld_global(addr, 0);
    let w = b.ffma(v, 1.0 + k as f32, 0.5f32);
    b.st_global(addr, 0, w);
    b.build()
}

/// The medium launches: the paper's tuned kernel (16x16 tiles, unrolled),
/// one variant so that the slow share of requests is homogeneous.
const MEDIUM: Variant = Variant::Tiled {
    tile: 16,
    unroll: true,
};

struct Inputs {
    probes: Vec<Kernel>,
    medium: Kernel,
    hot: Vec<WireLaunch>,
    seed: u64,
    kernels_built: u64,
}

fn probe_spec(kernel: &Kernel, image_seed: u64) -> WireLaunch {
    let words = PROBE_GRID * PROBE_BLOCK;
    let mut spec = WireLaunch::new(
        kernel.clone(),
        LaunchDims {
            grid: (PROBE_GRID, 1),
            block: (PROBE_BLOCK, 1, 1),
        },
        vec![Value::from_u32(0)],
        words * 4,
    );
    spec.writes = (0..words)
        .map(|w| {
            let x = bench::mix(image_seed, w as u64);
            (
                w * 4,
                Value::from_f32((x >> 40) as f32 / (1u64 << 24) as f32).0,
            )
        })
        .collect();
    spec
}

fn medium_spec(v: Variant, kernel: &Kernel, image_seed: u64) -> WireLaunch {
    let n = MEDIUM_N;
    let mm = MatMul { n };
    let (a, b) = mm.generate(image_seed);
    let t = v.block_edge();
    let (bx, by) = v.block_shape();
    let elems = n * n;
    let mut spec = WireLaunch::new(
        kernel.clone(),
        LaunchDims {
            grid: (n / t, n / t),
            block: (bx, by, 1),
        },
        vec![
            Value::from_u32(0),
            Value::from_u32(elems * 4),
            Value::from_u32(2 * elems * 4),
        ],
        3 * elems * 4,
    );
    spec.writes = a
        .iter()
        .chain(&b)
        .enumerate()
        .map(|(i, x)| (i as u32 * 4, x.to_bits()))
        .collect();
    spec
}

/// The three classes of request in the mix.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Class {
    HotProbe,
    FreshProbe,
    Medium,
}

const CLASSES: [Class; 3] = [Class::HotProbe, Class::FreshProbe, Class::Medium];

fn class_of(i: u64) -> Class {
    if i % MEDIUM_EVERY == MEDIUM_EVERY / 2 {
        Class::Medium
    } else if i % PROBE_CYCLE < REPEAT_OF_CYCLE {
        Class::HotProbe
    } else {
        Class::FreshProbe
    }
}

/// The spec of request `i` of the schedule, generated from the seed.
fn spec_of(inp: &Inputs, i: u64) -> WireLaunch {
    match class_of(i) {
        Class::Medium => medium_spec(MEDIUM, &inp.medium, bench::mix(inp.seed, 1 << 32 | i)),
        Class::HotProbe => inp.hot[(bench::mix(inp.seed, i) % HOT_IMAGES as u64) as usize].clone(),
        Class::FreshProbe => {
            let k = &inp.probes[(i % inp.probes.len() as u64) as usize];
            probe_spec(k, bench::mix(inp.seed, 2 << 32 | i))
        }
    }
}

fn setup_inputs(seed: u64) -> Inputs {
    let probes: Vec<Kernel> = (0..4)
        .map(|k| bench::build_kernel(|| probe_kernel(k)))
        .collect();
    let mm = MatMul { n: MEDIUM_N };
    let medium = bench::build_kernel(|| mm.kernel(MEDIUM));
    let hot = trace::span("apps.generate", || {
        (0..HOT_IMAGES)
            .map(|h| {
                probe_spec(
                    &probes[h % probes.len()],
                    bench::mix(seed, 3 << 32 | h as u64),
                )
            })
            .collect()
    });
    Inputs {
        kernels_built: probes.len() as u64 + 1,
        probes,
        medium,
        hot,
        seed,
    }
}

struct Daemon {
    server: Server,
    clients: Vec<Client>,
}

fn start_daemon(sock: PathBuf) -> std::io::Result<Daemon> {
    let _ = std::fs::remove_file(&sock);
    let addr = Addr::Unix(sock);
    let server = trace::span("serve.bind", || {
        g80_serve::serve(ServeConfig {
            addr: addr.clone(),
            ..ServeConfig::default()
        })
    })?;
    let clients = (0..CONNECTIONS)
        .map(|c| {
            trace::span("serve.connect", || {
                Client::connect_retry(&addr, &format!("tenant-{c}"), Duration::from_secs(10))
            })
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(Daemon { server, clients })
}

fn stop_daemon(mut d: Daemon) -> std::io::Result<()> {
    d.clients[0].shutdown()?;
    drop(d.clients);
    d.server.join()
}

/// One request's record.
struct Sent {
    index: u64,
    latency_ms: f64,
    late_ms: f64,
    service_ms: f64,
    rtt_ms: f64,
    outcome: Result<LaunchReport, String>,
    refused: bool,
    /// Kept for the in-process cross-check.
    check: Option<(WireLaunch, Vec<(u32, u32)>)>,
    wire_bytes: u64,
}

/// Runs requests `from..to` of the schedule across the client connections,
/// request `i` due at `start + (i - from) / RATE_PER_S`; returns the records
/// in schedule order and the phase's wall time in seconds.
fn open_loop(
    inp: &Inputs,
    clients: &mut [Client],
    from: u64,
    to: u64,
    phase: Option<Ctx>,
) -> (Vec<Sent>, f64) {
    let start = Instant::now() + Duration::from_millis(5);
    let period = 1.0 / RATE_PER_S;
    let n_conn = clients.len() as u64;
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut prev_done = start;
                    let mut i = from + c as u64;
                    while i < to {
                        let due = start + Duration::from_secs_f64((i - from) as f64 * period);
                        let spec = trace::span_under(phase, "gen.build", || spec_of(inp, i));
                        let wait_from = Instant::now();
                        if let Some(d) = due.checked_duration_since(wait_from) {
                            std::thread::sleep(d);
                        }
                        trace::record(phase, "gen.wait", wait_from, Instant::now());
                        out.push(trace::group_under(phase, "request", || {
                            request(client, &spec, i, due, prev_done)
                        }));
                        prev_done = Instant::now();
                        i += n_conn;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    sent.sort_by_key(|s| s.index);
    (sent, start.elapsed().as_secs_f64())
}

fn request(client: &mut Client, spec: &WireLaunch, i: u64, due: Instant, prev: Instant) -> Sent {
    let send_at = Instant::now();
    let late_ms = send_at
        .saturating_duration_since(due.max(prev))
        .as_secs_f64()
        * 1e3;
    let mut wire_bytes = 0;
    if trace::enabled() {
        let frame = trace::span("serve.codec", || Request::Launch(spec.clone()).encode());
        wire_bytes += frame.len() as u64;
    }
    let t0 = Instant::now();
    let r = trace::span("serve.rtt", || client.launch(spec));
    let rtt_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (outcome, refused, check) = match r {
        Ok(Ok((report, delta))) => {
            if trace::enabled() {
                let bytes = Response::Launch {
                    result: Ok((report.clone(), delta.clone())),
                }
                .encode();
                wire_bytes += bytes.len() as u64;
                std::hint::black_box(trace::span("serve.codec", || Response::decode(&bytes)));
            }
            let check = (i < DIGEST_REQUESTS && i.is_multiple_of(CHECK_EVERY))
                .then(|| (spec.clone(), delta));
            (Ok(report), false, check)
        }
        Ok(Err(e)) => {
            let refused = matches!(
                e,
                WireError::Throttled(_) | WireError::Rejected(_) | WireError::Overloaded { .. }
            );
            (Err(format!("request {i}: {e}")), refused, None)
        }
        Err(e) => (Err(format!("request {i}: transport: {e}")), false, None),
    };
    let done = Instant::now();
    Sent {
        index: i,
        latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
        late_ms,
        service_ms: done.duration_since(send_at).as_secs_f64() * 1e3,
        rtt_ms,
        outcome,
        refused,
        check,
        wire_bytes,
    }
}

/// Re-runs a request in process and compares statistics and final memory
/// with the daemon's answer. The caller turns the memo off, so the re-run
/// simulates instead of replaying the entry the daemon served.
fn cross_check(
    spec: &WireLaunch,
    report: &LaunchReport,
    delta: &[(u32, u32)],
) -> Result<(), String> {
    let mem = DeviceMemory::new(spec.mem_bytes);
    for &(a, w) in &spec.writes {
        mem.write(a, Value(w));
    }
    let mut want = mem.snapshot_words();
    let local = g80_sim::launch_reported(
        &GpuConfig::geforce_8800_gtx(),
        &spec.kernel,
        spec.dims,
        &spec.params,
        &mem,
    )
    .map_err(|e| format!("in-process launch: {e}"))?;
    if local.served != Served::Simulated {
        return Err(format!(
            "in-process launch was served by {:?}",
            local.served
        ));
    }
    let digest = |s: &KernelStats| {
        let mut d = Digest::default();
        d.stats(s);
        d
    };
    if digest(&local.stats) != digest(&report.stats) {
        return Err("statistics differ from an in-process launch".into());
    }
    for &(a, w) in delta {
        want[(a / 4) as usize] = w;
    }
    if mem.snapshot_words() != want {
        return Err("memory differs from an in-process launch".into());
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Outcome {
    const SETUPS: usize = 5;
    let mut setup_spans = Vec::new();
    let mut daemons = Vec::new();
    let (setup_s, inputs) = bench::repeat_setup(SETUPS, 1, |rep| {
        trace::set_enabled(opts.trace && rep + 1 == SETUPS);
        let inp = setup_inputs(opts.seed);
        let d = start_daemon(opts.work_dir.join(format!("serve-{rep}.sock")));
        trace::set_enabled(false);
        setup_spans = trace::take();
        daemons.push(d);
        inp
    });
    let mut problems = Vec::new();
    // Keep the last set-up's daemon; stop the others.
    let mut live = None;
    for d in daemons {
        match d {
            Ok(d) => {
                if let Some(Err(e)) = live.replace(d).map(stop_daemon) {
                    problems.push(format!("stopping a set-up daemon: {e}"));
                }
            }
            Err(e) => problems.push(format!("starting the daemon: {e}")),
        }
    }
    let Some(mut daemon) = live else {
        return Outcome {
            e2e: bench::Metrics::default(),
            layer: None,
            attempted: 1,
            failed: 1,
            digest: String::new(),
            problems,
            spans: Vec::new(),
        };
    };

    let total = (opts.seconds * RATE_PER_S)
        .round()
        .max(2.0 * DIGEST_REQUESTS as f64) as u64;
    let (sent, wall, traced) = if !opts.trace {
        let (sent, s) = open_loop(&inputs, &mut daemon.clients, 0, total, None);
        (sent, s, None)
    } else {
        let half = total / 2;
        let (sent, s) = open_loop(&inputs, &mut daemon.clients, 0, half, None);
        let before = Counters::now();
        trace::set_enabled(true);
        let mut traced = None;
        trace::group("phase", || {
            traced = Some(open_loop(
                &inputs,
                &mut daemon.clients,
                half,
                2 * half,
                trace::current(),
            ));
        });
        trace::set_enabled(false);
        let counters = Counters::now().since(&before);
        (sent, s, traced.map(|t| (t.0, counters, trace::take())))
    };
    if let Err(e) = stop_daemon(daemon) {
        problems.push(format!("stopping the daemon: {e}"));
    }

    // Outcomes, the digest window and the cross-check sample.
    let all: Vec<&Sent> = sent
        .iter()
        .chain(traced.iter().flat_map(|t| &t.0))
        .collect();
    let attempted = all.len() as u64;
    let mut failed = 0u64;
    for s in &all {
        if let Err(e) = &s.outcome {
            failed += 1;
            problems.push(e.clone());
        }
    }
    let mut gpu = Gpu::default();
    let mut medium_gflops = None;
    let mut checked = Vec::new();
    // The daemon has stopped: re-run the sample with the memo off, then
    // restore the pinned configuration.
    g80_sim::set_memo(Memo::Off);
    for s in sent.iter().filter(|s| s.index < DIGEST_REQUESTS) {
        let Ok(report) = &s.outcome else { continue };
        gpu.add(&report.stats);
        if let Some((spec, delta)) = &s.check {
            checked.push(class_of(s.index));
            if let Err(e) = cross_check(spec, report, delta) {
                failed += 1;
                problems.push(format!("request {}: {e}", s.index));
            }
        }
        if class_of(s.index) == Class::Medium {
            medium_gflops.get_or_insert(report.stats.gflops());
        }
    }
    g80_sim::set_memo(Memo::On);
    for c in CLASSES {
        if !checked.contains(&c) {
            failed += 1;
            problems.push(format!("no {c:?} request was cross-checked in process"));
        }
    }
    let paper = paper_fig4_gflops(&MEDIUM.label()).expect("the paper states this configuration");
    let fig4_err_pct = 100.0 * (medium_gflops.unwrap_or(0.0) / paper - 1.0).abs();

    for c in CLASSES {
        let ms: Vec<f64> = sent
            .iter()
            .filter(|s| class_of(s.index) == c)
            .map(|s| s.latency_ms)
            .collect();
        if !ms.is_empty() {
            println!(
                "latency {c:?}: p50 {:.3} ms, p90 {:.3} ms over {} requests",
                stats::percentile(&ms, 50.0).value,
                stats::percentile(&ms, 90.0).value,
                ms.len()
            );
        }
    }
    let late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
    let gen_late_p90 = stats::percentile(&late, 90.0).value;
    if gen_late_p90 > GEN_LATE_LIMIT_MS {
        failed += 1;
        problems.push(format!(
            "generator fell behind its schedule: p90 lateness {gen_late_p90:.2} ms > {GEN_LATE_LIMIT_MS} ms; latencies are not valid"
        ));
    }

    let mut tally = Tally::default();
    for s in &sent {
        if let Ok(r) = &s.outcome {
            tally.served(&r.stats, r.served);
        }
    }
    let ok_in_limit = sent
        .iter()
        .filter(|s| s.outcome.is_ok() && s.latency_ms <= LIMIT_MS)
        .count();
    let e2e = bench::end_to_end_metrics(&EndToEnd {
        setup_s: setup_s.clone(),
        winst_per_s: tally.winst as f64 / wall,
        launches_per_s: tally.launches as f64 / wall,
        latencies_ms: sent.iter().map(|s| s.latency_ms).collect(),
        goodput: ok_in_limit as f64 / wall,
        fig4_err_pct,
        attempted,
        failed,
    });

    let mut spans = Vec::new();
    let layer = traced.map(|(tsent, counters, tspans)| {
        spans = setup_spans;
        spans.extend(tspans);
        let mut t = Tally::default();
        for s in &tsent {
            if let Ok(r) = &s.outcome {
                t.served(&r.stats, r.served);
            }
        }
        let rtt: Vec<f64> = tsent.iter().map(|s| s.rtt_ms).collect();
        let svc = |v: &[Sent]| stats::median(&v.iter().map(|s| s.service_ms).collect::<Vec<_>>());
        let tlate: Vec<f64> = tsent.iter().map(|s| s.late_ms).collect();
        let extra = [
            ("serve.rtt_p50_ms", stats::percentile(&rtt, 50.0).value),
            ("serve.rtt_p99_ms", stats::percentile(&rtt, 99.0).value),
            (
                "serve.wire_bytes",
                tsent.iter().map(|s| s.wire_bytes).sum::<u64>() as f64,
            ),
            (
                "serve.from_cache_fraction",
                (t.from_memo + t.from_disk) as f64 / t.launches.max(1) as f64,
            ),
            (
                "serve.refused",
                tsent.iter().filter(|s| s.refused).count() as f64,
            ),
            (
                "serve.gen_late_p90_ms",
                stats::percentile(&tlate, 90.0).value,
            ),
            // Launches ran inside the daemon: their simulations are known
            // from the responses' provenance, not from benchmark-side spans.
            ("sim.launches_simulated", t.simulated as f64),
        ];
        bench::layer_metrics(
            &LayerInputs {
                spans: &spans,
                counters,
                tally: t,
                kernels_built: inputs.kernels_built,
                gpu: &gpu,
                overhead: svc(&tsent) / svc(&sent),
                // Each request's time, not the phase's: the generators
                // spend most of the phase waiting for the next due time.
                root: "request",
                failed_frac: failed as f64 / attempted.max(1) as f64,
                setup_samples: setup_s.len(),
                timed_samples: tsent.len(),
            },
            &extra,
        )
    });

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
