//! What every workload shares: the pinned configuration and its stamp,
//! counter snapshots, the traced launch and copy helpers, and the metric
//! sets each run reports.

use crate::stats::{self, Digest, STALLS};
use crate::trace;
use g80_cuda::{Device, DeviceBuffer, Word32};
use g80_isa::{CompiledKernel, DecodedKernel, Kernel, Value};
use g80_sim::{
    memo_counters, net_counters, row_counters, Dedup, Engine, Executor, KernelStats, LaunchError,
    Memo, MemoCounters, NetCounters, RowCounters, Rows, Served,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The launch memo's documented default capacity, pinned so that a stray
/// `G80_SIM_MEMO_CAP` cannot change what is measured.
pub const MEMO_CAPACITY: usize = 128;
/// The disk tier's documented default byte budget.
pub const DISK_CAP_BYTES: u64 = 1 << 30;

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the benchmark's own smoke test.
    pub tiny: bool,
    /// Scratch space inside the checkout (disk-cache directories, sockets,
    /// span dumps).
    pub work_dir: PathBuf,
}

/// Drops every `G80_SIM_*` / `G80_SERVE_*` variable so that no toggle is
/// resolved from the environment, then sets each one explicitly, the disk
/// tier off. Must run before any other thread starts.
pub fn pin_config() {
    for (k, _) in std::env::vars_os() {
        let k = k.to_string_lossy().into_owned();
        if k.starts_with("G80_SIM_") || k.starts_with("G80_SERVE_") {
            std::env::remove_var(k);
        }
    }
    g80_sim::set_engine(Engine::Predecoded);
    g80_sim::set_rows(Rows::Tracked);
    g80_sim::set_executor(Executor::Pooled);
    g80_sim::set_memo(Memo::On);
    g80_sim::set_memo_capacity(MEMO_CAPACITY);
    g80_sim::set_dedup(Dedup::On);
    g80_sim::set_disk_cache_cap(DISK_CAP_BYTES);
    g80_sim::set_disk_cache(None);
    g80_sim::set_faults(None);
    g80_sim::set_watchdog_cycles(None);
    g80_serve::set_net_faults(None);
}

/// Byte budget of the armed disk tier, for the stamp.
static ARMED_DISK_CAP: AtomicU64 = AtomicU64::new(DISK_CAP_BYTES);

/// Arms the disk tier in `dir` with a budget of `cap` bytes.
pub fn arm_disk(dir: PathBuf, cap: u64) {
    g80_sim::set_disk_cache_cap(cap);
    g80_sim::set_disk_cache(Some(dir));
    ARMED_DISK_CAP.store(cap, Ordering::Relaxed);
}

/// The resolved configuration, as recorded with every result.
pub fn config_string() -> String {
    format!(
        "engine={:?} rows={:?} executor={:?} memo={:?} memo_cap={} dedup={:?} disk={} \
         faults=off net_faults=off watchdog={}",
        g80_sim::engine(),
        g80_sim::rows(),
        g80_sim::executor(),
        g80_sim::memo(),
        MEMO_CAPACITY,
        g80_sim::dedup(),
        if g80_sim::disk_cache_dir().is_some() {
            format!("on disk_cap={}", ARMED_DISK_CAP.load(Ordering::Relaxed))
        } else {
            "off".to_string()
        },
        match g80_sim::watchdog_cycles() {
            u64::MAX => "off".to_string(),
            c => c.to_string(),
        }
    )
}

fn command_line(prog: &str, args: &[&str]) -> String {
    std::process::Command::new(prog)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON line identifying what was measured and where.
pub fn stamp(opts: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_sha\": \"{}\", \
         \"nproc\": {}, \"rustc\": \"{}\", \"pool_threads\": {}, \"config\": \"{}\"}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        std::env::var("PERFBENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into()),
        nproc,
        command_line("rustc", &["-V"]),
        g80_sim::pool::worker_count(),
        config_string()
    )
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Splitmix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---- process-wide counters --------------------------------------------------

/// Snapshot of the simulator's process-wide counters.
#[derive(Copy, Clone, Debug, Default)]
pub struct Counters {
    pub memo: MemoCounters,
    pub rows: RowCounters,
    pub net: NetCounters,
}

impl Counters {
    pub fn now() -> Self {
        Counters {
            memo: memo_counters(),
            rows: row_counters(),
            net: net_counters(),
        }
    }

    pub fn since(&self, before: &Counters) -> Counters {
        let (a, b) = (&self.memo, &before.memo);
        Counters {
            memo: MemoCounters {
                hits: a.hits - b.hits,
                misses: a.misses - b.misses,
                disk_hits: a.disk_hits - b.disk_hits,
                disk_misses: a.disk_misses - b.disk_misses,
                disk_evictions: a.disk_evictions - b.disk_evictions,
                dedup_fast_blocks: a.dedup_fast_blocks - b.dedup_fast_blocks,
                dedup_sim_blocks: a.dedup_sim_blocks - b.dedup_sim_blocks,
                dedup_fallbacks: a.dedup_fallbacks - b.dedup_fallbacks,
            },
            rows: self.rows.since(&before.rows),
            net: self.net.since(&before.net),
        }
    }
}

// ---- traced layer calls -----------------------------------------------------

/// What the benchmark's own calls returned: launches by serving tier and
/// the work they carried.
#[derive(Copy, Clone, Debug, Default)]
pub struct Tally {
    /// Launches whose `KernelStats` came back (simulated or replayed).
    pub launches: u64,
    /// Warp instructions in those `KernelStats`.
    pub winst: u64,
    pub simulated: u64,
    pub simulated_winst: u64,
    pub from_memo: u64,
    pub from_disk: u64,
    pub batch_launches: u64,
    pub copy_bytes: u64,
}

impl Tally {
    pub fn served(&mut self, stats: &KernelStats, served: Served) {
        self.launches += 1;
        self.winst += stats.warp_instructions;
        match served {
            Served::Simulated => {
                self.simulated += 1;
                self.simulated_winst += stats.warp_instructions;
            }
            Served::Memo => self.from_memo += 1,
            Served::Disk => self.from_disk += 1,
        }
    }

    /// Counts launches hidden inside an application's `run()`: only the
    /// device timeline saw their provenance.
    pub fn app_run(&mut self, stats: &KernelStats, t: &g80_cuda::Timeline) {
        self.launches += t.launches;
        self.winst += stats.warp_instructions;
        self.from_memo += t.memo_hits;
        self.from_disk += t.disk_hits;
        self.simulated += t.launches - t.memo_hits - t.disk_hits;
    }
}

/// The span name of a launch served by `s`.
pub fn tier_span(s: Served) -> &'static str {
    match s {
        Served::Simulated => "sim.exec",
        Served::Memo => "memo.replay",
        Served::Disk => "disk.replay",
    }
}

/// `Device::launch` in a span named after the tier that served it.
pub fn device_launch(
    dev: &Device,
    kernel: &Kernel,
    grid: (u32, u32),
    block: (u32, u32, u32),
    params: &[Value],
    tally: &mut Tally,
) -> Result<KernelStats, LaunchError> {
    let before = dev.timeline();
    let r = trace::span_named(
        |r: &Result<(KernelStats, Served), LaunchError>| match r {
            Ok((_, s)) => tier_span(*s),
            Err(_) => "sim.exec",
        },
        || {
            dev.launch(kernel, grid, block, params).map(|stats| {
                let after = dev.timeline();
                let served = if after.memo_hits > before.memo_hits {
                    Served::Memo
                } else if after.disk_hits > before.disk_hits {
                    Served::Disk
                } else {
                    Served::Simulated
                };
                (stats, served)
            })
        },
    );
    r.map(|(stats, served)| {
        tally.served(&stats, served);
        stats
    })
}

pub fn copy_in<T: Word32>(dev: &Device, buf: &DeviceBuffer<T>, data: &[T], tally: &mut Tally) {
    tally.copy_bytes += 4 * data.len() as u64;
    trace::span("cuda.copy", || dev.copy_to_device(buf, data));
}

pub fn copy_out<T: Word32>(dev: &Device, buf: &DeviceBuffer<T>, tally: &mut Tally) -> Vec<T> {
    tally.copy_bytes += 4 * buf.len() as u64;
    trace::span("cuda.copy", || dev.copy_from_device(buf))
}

/// Builds a kernel in an `isa.build` span, then predecodes and compiles it
/// in `isa.predecode` / `isa.compile` spans, as the simulator does on first
/// launch.
pub fn build_kernel(build: impl FnOnce() -> Kernel) -> Kernel {
    let k = trace::span("isa.build", build);
    std::hint::black_box(trace::span("isa.predecode", || DecodedKernel::new(&k)));
    std::hint::black_box(trace::span("isa.compile", || CompiledKernel::new(&k)));
    k
}

/// Simulated statistics of a workload's digest unit, summed.
#[derive(Clone, Debug, Default)]
pub struct Gpu {
    pub cycles: u64,
    pub winst: u64,
    pub coalesced: u64,
    pub uncoalesced: u64,
    pub smem_conflict: u64,
    pub stall: [u64; 5],
    pub digest: Digest,
    pub launches: u64,
}

impl Gpu {
    pub fn add(&mut self, s: &KernelStats) {
        self.cycles += s.cycles;
        self.winst += s.warp_instructions;
        self.coalesced += s.coalesced_half_warps;
        self.uncoalesced += s.uncoalesced_half_warps;
        self.smem_conflict += s.smem_conflict_extra_cycles;
        for (slot, r) in self.stall.iter_mut().zip(STALLS) {
            *slot += stats::stall(s, r);
        }
        self.digest.stats(s);
        self.launches += 1;
    }
}

// ---- metrics ----------------------------------------------------------------

/// What one run of a workload measured and checked.
pub struct Outcome {
    pub e2e: Metrics,
    /// The per-layer set, present on traced runs.
    pub layer: Option<Metrics>,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the workload's simulated statistics.
    pub digest: String,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Spans of the traced run, written out when the run ends.
    pub spans: Vec<trace::Span>,
}

/// Named metrics with units, in reporting order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Every end-to-end metric, with its unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sim_winst_per_s", "winst/s"),
    ("launches_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("goodput_req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("fig4_err_pct", "%"),
    ("ops_ok_frac", "ratio"),
];

/// Every per-layer metric, with its unit.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("isa.build_s", "s"),
    ("isa.kernels_built", "count"),
    ("isa.predecode_s", "s"),
    ("isa.compile_s", "s"),
    ("sim.exec_s", "s"),
    ("sim.launches_simulated", "count"),
    ("sim.exec_winst_per_s", "winst/s"),
    ("rows.shaped_fraction", "ratio"),
    ("dedup.fast_blocks", "count"),
    ("dedup.sim_blocks", "count"),
    ("dedup.fallbacks", "count"),
    ("dedup.fast_fraction", "ratio"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_rate", "ratio"),
    ("memo.replay_s", "s"),
    ("disk.hits", "count"),
    ("disk.misses", "count"),
    ("disk.evictions", "count"),
    ("disk.replay_s", "s"),
    ("pool.batch_s", "s"),
    ("pool.batch_launches", "count"),
    ("cuda.copy_s", "s"),
    ("cuda.copy_bytes", "bytes"),
    ("apps.generate_s", "s"),
    ("apps.validate_s", "s"),
    ("apps.run_s", "s"),
    ("core.analysis_s", "s"),
    ("serve.rtt_p50_ms", "ms"),
    ("serve.rtt_p99_ms", "ms"),
    ("serve.codec_s", "s"),
    ("serve.wire_bytes", "bytes"),
    ("serve.from_cache_fraction", "ratio"),
    ("serve.refused", "count"),
    ("serve.reconnects", "count"),
    ("serve.frames_retried", "count"),
    ("serve.gen_late_p90_ms", "ms"),
    ("gen.wait_s", "s"),
    ("ops.failed_frac", "ratio"),
    ("gpu.launches", "count"),
    ("gpu.cycles", "cycles"),
    ("gpu.winst", "count"),
    ("gpu.ipc", "winst/cycle"),
    ("gpu.coalesced_fraction", "ratio"),
    ("gpu.smem_conflict_cycles", "cycles"),
    ("gpu.stall.memory", "cycles"),
    ("gpu.stall.alu_dependency", "cycles"),
    ("gpu.stall.barrier", "cycles"),
    ("gpu.stall.issue_busy", "cycles"),
    ("gpu.stall.drain", "cycles"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("setup.samples", "count"),
    ("timed.samples", "count"),
];

/// What a traced run measured, as inputs to the per-layer metric set.
pub struct LayerInputs<'a> {
    /// Spans of the traced part, including the setup whose `isa.*` and
    /// `apps.generate` spans it covers.
    pub spans: &'a [trace::Span],
    /// Counter delta over the traced part.
    pub counters: Counters,
    pub tally: Tally,
    pub kernels_built: u64,
    pub gpu: &'a Gpu,
    /// Traced wall over untraced wall of the same work.
    pub overhead: f64,
    /// Name of the root span of each traced timed unit.
    pub root: &'static str,
    pub failed_frac: f64,
    pub setup_samples: usize,
    pub timed_samples: usize,
}

/// The per-layer metric set every workload reports; metrics a workload has
/// no layer for read 0. `extra` supplies workload-specific values by name
/// (the serve metrics).
pub fn layer_metrics(inp: &LayerInputs, extra: &[(&'static str, f64)]) -> Metrics {
    let by = trace::self_seconds_by_name(inp.spans);
    let t = |n: &str| by.get(n).copied().unwrap_or(0.0);
    let m = &inp.counters.memo;
    let rows = &inp.counters.rows;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let g = inp.gpu;
    let exec_s = t("sim.exec");
    let mut values: Vec<(&str, f64)> = vec![
        ("isa.build_s", t("isa.build")),
        ("isa.kernels_built", inp.kernels_built as f64),
        ("isa.predecode_s", t("isa.predecode")),
        ("isa.compile_s", t("isa.compile")),
        ("sim.exec_s", exec_s),
        ("sim.launches_simulated", inp.tally.simulated as f64),
        (
            "sim.exec_winst_per_s",
            if exec_s > 0.0 {
                inp.tally.simulated_winst as f64 / exec_s
            } else {
                0.0
            },
        ),
        (
            "rows.shaped_fraction",
            ratio(rows.uniform + rows.affine, rows.total()),
        ),
        ("dedup.fast_blocks", m.dedup_fast_blocks as f64),
        ("dedup.sim_blocks", m.dedup_sim_blocks as f64),
        ("dedup.fallbacks", m.dedup_fallbacks as f64),
        (
            "dedup.fast_fraction",
            ratio(
                m.dedup_fast_blocks,
                m.dedup_fast_blocks + m.dedup_sim_blocks,
            ),
        ),
        ("memo.hits", m.hits as f64),
        ("memo.misses", m.misses as f64),
        ("memo.hit_rate", m.hit_rate()),
        ("memo.replay_s", t("memo.replay")),
        ("disk.hits", m.disk_hits as f64),
        ("disk.misses", m.disk_misses as f64),
        ("disk.evictions", m.disk_evictions as f64),
        ("disk.replay_s", t("disk.replay")),
        ("pool.batch_s", t("pool.batch")),
        ("pool.batch_launches", inp.tally.batch_launches as f64),
        ("cuda.copy_s", t("cuda.copy")),
        ("cuda.copy_bytes", inp.tally.copy_bytes as f64),
        ("apps.generate_s", t("apps.generate")),
        ("apps.validate_s", t("apps.validate")),
        ("apps.run_s", t("apps.run")),
        ("core.analysis_s", t("core.analysis")),
        ("serve.codec_s", t("serve.codec")),
        ("gen.wait_s", t("gen.wait")),
        ("ops.failed_frac", inp.failed_frac),
        ("gpu.launches", g.launches as f64),
        ("gpu.cycles", g.cycles as f64),
        ("gpu.winst", g.winst as f64),
        ("gpu.ipc", ratio(g.winst, g.cycles)),
        (
            "gpu.coalesced_fraction",
            ratio(g.coalesced, g.coalesced + g.uncoalesced),
        ),
        ("gpu.smem_conflict_cycles", g.smem_conflict as f64),
        ("gpu.stall.memory", g.stall[0] as f64),
        ("gpu.stall.alu_dependency", g.stall[1] as f64),
        ("gpu.stall.barrier", g.stall[2] as f64),
        ("gpu.stall.issue_busy", g.stall[3] as f64),
        ("gpu.stall.drain", g.stall[4] as f64),
        ("trace.coverage", trace::coverage(inp.spans, inp.root)),
        ("trace.overhead", inp.overhead),
        ("trace.spans", inp.spans.len() as f64),
        ("setup.samples", inp.setup_samples as f64),
        ("timed.samples", inp.timed_samples as f64),
        ("serve.reconnects", inp.counters.net.reconnects as f64),
        (
            "serve.frames_retried",
            inp.counters.net.frames_retried as f64,
        ),
    ];
    values.extend_from_slice(extra);
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        let v = values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        out.put(name, v, unit);
    }
    out
}

/// Inputs of the end-to-end metric set.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub winst_per_s: f64,
    pub launches_per_s: f64,
    /// Per-operation latencies in milliseconds, measured from when each
    /// operation was due.
    pub latencies_ms: Vec<f64>,
    /// Operations that succeeded within the latency limit, per second of
    /// schedule.
    pub goodput: f64,
    pub fig4_err_pct: f64,
    pub attempted: u64,
    pub failed: u64,
}

pub fn end_to_end_metrics(e: &EndToEnd) -> Metrics {
    let lat = |p| {
        if e.latencies_ms.is_empty() {
            0.0
        } else {
            stats::percentile(&e.latencies_ms, p).value
        }
    };
    let values = [
        stats::median(&e.setup_s),
        e.winst_per_s,
        e.launches_per_s,
        lat(50.0),
        lat(90.0),
        e.goodput,
        peak_rss_mb(),
        e.fig4_err_pct,
        1.0 - e.failed as f64 / e.attempted.max(1) as f64,
    ];
    if let Some((p, pct)) = stats::highest_supported(&e.latencies_ms) {
        println!(
            "latency: p50 {:.3} ms, p{p} {:.3} ms over {} samples ({} beyond)",
            lat(50.0),
            pct.value,
            pct.samples,
            pct.beyond
        );
    }
    let mut out = Metrics::default();
    for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
        out.put(name, v, unit);
    }
    out
}

/// Times `samples` samples of `per_sample` back-to-back calls `f(i)`
/// (`i` counts every call); returns each sample's time per call in seconds
/// and the last result. Batching calls lets a short set-up be timed.
pub fn repeat_setup<R>(
    samples: usize,
    per_sample: usize,
    mut f: impl FnMut(usize) -> R,
) -> (Vec<f64>, R) {
    let per_sample = per_sample.max(1);
    let mut times = Vec::with_capacity(samples);
    let mut last = None;
    let mut i = 0;
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        for _ in 0..per_sample {
            drop(last.take());
            last = Some(f(i));
            i += 1;
        }
        times.push(t0.elapsed().as_secs_f64() / per_sample as f64);
    }
    (times, last.expect("at least one setup"))
}
