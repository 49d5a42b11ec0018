//! Tiny-scale smoke run of every workload, untraced and traced: each run
//! must pass its output checks and print every metric `BENCHMARK.json`
//! names for its mode, by name with its unit, both in the metric lines and
//! in the final JSON object.

use std::process::Command;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in the `key` section of BENCHMARK.json.
fn section(key: &str) -> Vec<(String, String)> {
    let start = MANIFEST
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |obj: &str, k: &str| -> String {
        let tag = format!("\"{k}\": \"");
        let at = obj
            .find(&tag)
            .unwrap_or_else(|| panic!("{k} missing in {obj}"))
            + tag.len();
        obj[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_g80-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--tiny",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let wanted = section(if trace { "per_layer" } else { "end_to_end" });
    assert!(!wanted.is_empty());
    for (name, unit) in &wanted {
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
        assert!(line.ends_with(&format!(" {unit}")), "{workload}: {line}");
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} not in {last}"));
        let rest = &last[at + entry.len()..];
        let (value, tail) = rest.split_once(',').expect("value then unit");
        value.trim().parse::<f64>().expect("numeric value");
        assert!(
            tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{name}: {tail}"
        );
    }
    assert_eq!(
        last.matches("\"value\":").count(),
        wanted.len(),
        "{workload}: the result holds exactly the named metrics"
    );
}

#[test]
fn every_workload_prints_every_metric() {
    for workload in ["paper_repro", "tuner_fleet", "serve_mixed"] {
        run(workload, false);
        run(workload, true);
    }
}
