//! The g80 benchmark: three workloads, end-to-end metrics timed with
//! tracing off, and a traced run that splits host time by layer.
//!
//! ```text
//! g80-perfbench --workload <paper_repro|tuner_fleet|serve_mixed> --seed <n>
//!               --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Run from the repository root. Prints one line per metric with its unit,
//! a stamp line (configuration, git sha, nproc, rustc, seed, pool size),
//! and, last, one JSON object: `correct`, `attempted`, `failed`, `metrics`
//! (the end-to-end set untraced, the per-layer set traced). Exits non-zero
//! when an output check fails.

mod bench;
mod paper_repro;
mod serve_mixed;
mod stats;
mod trace;
mod tuner_fleet;

use bench::{Metrics, Opts};
use std::path::PathBuf;
use std::process::ExitCode;

/// Digest of each workload's simulated statistics (`workload digest` per
/// line). The statistics do not depend on the input seed, so a full-scale
/// run on any seed must reproduce its workload's digest exactly.
const DIGESTS: &str = include_str!("../digests.txt");

fn usage() -> String {
    "usage: g80-perfbench --workload <paper_repro|tuner_fleet|serve_mixed> --seed <n> \
     --seconds <s> --trace <0|1> [--tiny]"
        .into()
}

fn parse_args() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        let mut value = || {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper_repro", "tuner_fleet", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        work_dir: PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id())),
    })
}

fn expected_digest(workload: &str) -> Option<&'static str> {
    DIGESTS.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()? == workload).then_some(f.next()?)
    })
}

fn json_metrics(m: &Metrics) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, value, unit) in &m.0 {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("g80-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!(
            "g80-perfbench: cannot create {}: {e}",
            opts.work_dir.display()
        );
        return ExitCode::from(2);
    }
    bench::pin_config();

    let outcome = match opts.workload.as_str() {
        "paper_repro" => paper_repro::run(&opts),
        "tuner_fleet" => tuner_fleet::run(&opts),
        _ => serve_mixed::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);

    let mut problems = outcome.problems.clone();
    let mut failed = outcome.failed;
    if !opts.tiny {
        let want = expected_digest(&opts.workload).unwrap_or("none");
        if want != outcome.digest {
            failed += 1;
            problems.push(format!(
                "simulated-statistics digest {} differs from the recorded {want}",
                outcome.digest
            ));
        }
    }

    for (name, value, unit) in outcome
        .e2e
        .0
        .iter()
        .chain(outcome.layer.iter().flat_map(|m| &m.0))
    {
        println!("{:<28} {:>18.6} {unit}", name, value);
    }
    println!("digest {} {} {}", opts.workload, opts.seed, outcome.digest);
    println!("stamp {}", bench::stamp(&opts));
    if !outcome.spans.is_empty() {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match trace::write_jsonl(&outcome.spans, &path) {
            Ok(()) => println!(
                "spans {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("g80-perfbench: writing spans: {e}"),
        }
    }
    for p in &problems {
        eprintln!("g80-perfbench: check failed: {p}");
    }

    let metrics = if opts.trace {
        outcome
            .layer
            .as_ref()
            .expect("traced runs report the per-layer set")
    } else {
        &outcome.e2e
    };
    let metrics = match json_metrics(metrics) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("g80-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
