//! `mfpa-benchmark`: the MFPA fleet benchmark, timed end to end and
//! layer by layer.
//!
//! ```text
//! mfpa-benchmark [--workload W]... [--seed N] [--seconds S]
//!                [--trace 0|1 | --traced] [--smoke] [--out DIR]
//! mfpa-benchmark --compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Each workload (all four by default) runs in a child process of its
//! own with `MFPA_THREADS=1`. Every metric is printed by name with its
//! unit, one JSON file per run is written under `DIR` (default
//! `target/benchmark`), and the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones of `BENCHMARK.json`,
//! with `--trace 1` the per-layer ones. The exit code is nonzero when a
//! correctness check fails.

mod catalog;
mod compare;
mod host;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::{json, Map, Value};

use catalog::Catalog;
use workloads::{Outcome, RunCfg};

const USAGE: &str = "usage: mfpa-benchmark [--workload W]... [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--smoke] [--out DIR]\n       mfpa-benchmark --compare PARENT_DIR CHANGE_DIR";

/// Command-line settings.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    /// Run one workload in this process (the parent passes it).
    child: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String], catalog: &Catalog) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: catalog.run_seconds,
        traced: false,
        smoke: false,
        out: PathBuf::from("target/benchmark"),
        child: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !catalog.workloads.contains(&w) {
                    return Err(format!(
                        "unknown workload `{w}` (known: {})",
                        catalog.workloads.join(", ")
                    ));
                }
                args.workloads.push(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--child" => args.child = true,
            "--compare" => {
                let parent = value("two directories")?;
                let change = value("two directories")?;
                args.compare = Some((parent.into(), change.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = catalog.workloads.clone();
    }
    if args.child && args.workloads.len() != 1 {
        return Err("--child runs exactly one workload".into());
    }
    Ok(args)
}

/// Where a run's JSON goes.
fn run_file(out: &Path, workload: &str, seed: u64, traced: bool) -> PathBuf {
    let suffix = if traced { ".trace" } else { "" };
    out.join(format!("{workload}.seed{seed}{suffix}.json"))
}

/// The run's JSON file: the result, the checks, the digest, every metric
/// with its unit and how it was measured, and the spans of a traced run.
fn run_json(cfg: &RunCfg, outcome: &Outcome, catalog: &Catalog) -> Value {
    let defs = catalog.metrics(cfg.traced);
    for m in &outcome.metrics {
        assert!(
            defs.iter().any(|d| d.name == m.name),
            "metric `{}` is not in BENCHMARK.json",
            m.name
        );
    }
    let mut metrics = Map::new();
    for def in defs {
        let (value, detail) = match outcome.metrics.iter().find(|m| m.name == def.name) {
            Some(m) => (m.value, m.detail.clone()),
            None if cfg.traced => (0.0, "not on this workload's path".to_owned()),
            None => panic!("end-to-end metric `{}` was not measured", def.name),
        };
        metrics.insert(
            def.name.clone(),
            json!({"value": value, "unit": def.unit.clone(), "detail": detail}),
        );
    }
    let samples: Map = outcome
        .samples
        .iter()
        .map(|(name, xs)| (name.to_string(), json!(xs)))
        .collect();
    let checks: Map = outcome
        .checks
        .iter()
        .map(|&(name, ok)| (name.to_owned(), Value::Bool(ok)))
        .collect();
    let mut run = json!({
        "workload": cfg.workload.clone(),
        "seed": cfg.seed,
        "trace": cfg.traced,
        "smoke": cfg.smoke,
        "seconds": cfg.seconds,
        "n_threads": mfpa_par::Workers::from_config(0).get(),
        "available_parallelism": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "correct": outcome.correct(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": format!("{:#018x}", outcome.digest),
        "checks": Value::Object(checks),
        "metrics": Value::Object(metrics),
        "samples": Value::Object(samples)
    });
    if cfg.traced {
        if let Value::Object(m) = &mut run {
            m.insert("spans".into(), trace::spans_json(&outcome.spans));
        }
    }
    run
}

fn run_child(args: &Args, catalog: &Catalog) -> ExitCode {
    let cfg = RunCfg {
        workload: args.workloads[0].clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        out: args.out.clone(),
    };
    let outcome = workloads::run(&cfg);
    let file = run_file(&cfg.out, &cfg.workload, cfg.seed, cfg.traced);
    let text = run_json(&cfg, &outcome, catalog).to_string();
    if let Err(e) = std::fs::write(&file, text) {
        eprintln!("error: cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints one run's metrics, digest and checks for a reader.
fn print_run(run: &Value, catalog: &Catalog) {
    let field = |k: &str| run.get(k).cloned().unwrap_or(Value::Null);
    let traced = field("trace") == Value::Bool(true);
    println!(
        "== {} (seed {}, {}, MFPA_THREADS={}) ==",
        field("workload").as_str().unwrap_or("?"),
        field("seed"),
        if traced { "traced" } else { "untraced" },
        field("n_threads"),
    );
    if let Some(metrics) = field("metrics").as_object() {
        for def in catalog.metrics(traced) {
            let name = &def.name;
            let Some(m) = metrics.get(name) else {
                continue;
            };
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            let detail = m.get("detail").and_then(Value::as_str).unwrap_or("");
            println!("  {name:<28} {value:>16.6} {unit:<12} {detail}");
        }
    }
    let checks: Vec<String> = field("checks")
        .as_object()
        .map(|c| {
            c.iter()
                .map(|(k, v)| {
                    format!(
                        "{k}={}",
                        if v == &Value::Bool(true) {
                            "ok"
                        } else {
                            "FAILED"
                        }
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    println!(
        "  digest {}  attempted {} failed {}  checks: {}",
        field("digest").as_str().unwrap_or("?"),
        field("attempted"),
        field("failed"),
        checks.join(" ")
    );
}

fn run_parent(args: &Args, catalog: &Catalog) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let single = args.workloads.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Map::new();
    for workload in &args.workloads {
        let file = run_file(&args.out, workload, args.seed, args.traced);
        let _ = std::fs::remove_file(&file);
        let mut child = Command::new(&exe);
        child
            .args(["--child", "--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .env(mfpa_par::THREADS_ENV, "1")
            .stdout(Stdio::null());
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child.status();
        let run: Option<Value> = std::fs::read_to_string(&file)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok());
        let Some(run) = run else {
            eprintln!("error: workload {workload} produced no result ({status:?})");
            correct = false;
            continue;
        };
        print_run(&run, catalog);
        let run_ok = run.get("correct") == Some(&Value::Bool(true));
        correct &= run_ok && status.is_ok_and(|s| s.success());
        attempted += run.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        failed += run.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        if let Some(ms) = run.get("metrics").and_then(Value::as_object) {
            for (name, m) in ms {
                let key = if single {
                    name.clone()
                } else {
                    format!("{workload}/{name}")
                };
                metrics.insert(
                    key,
                    json!({"value": m.get("value").cloned(), "unit": m.get("unit").cloned()}),
                );
            }
        }
    }
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(metrics)
        })
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let catalog = Catalog::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv, &catalog) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((parent, change)) = &args.compare {
        return match compare::compare(parent, change, &catalog) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.child {
        run_child(&args, &catalog)
    } else {
        run_parent(&args, &catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = words.iter().map(|w| (*w).to_owned()).collect();
        parse_args(&argv, &Catalog::load())
    }

    #[test]
    fn driver_flags_parse() {
        let a = parse(&[
            "--workload",
            "monitor",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, ["monitor"]);
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10.0, true));
        let all = parse(&[]).unwrap();
        assert_eq!(all.workloads.len(), 4);
        assert!(!all.traced);
        assert!(parse(&["--traced"]).unwrap().traced);
    }

    #[test]
    fn bad_flags_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--compare", "only-one"],
            &["--child"],
            &["--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
