//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment-id | all | list> [--seed N] [--fraction F]
//!       [--boost B] [--horizon D] [--json PATH]
//! ```
//!
//! Run `repro list` for the experiment ids; `repro all` regenerates
//! everything (this is what EXPERIMENTS.md records). `--json PATH`
//! appends one JSON line per experiment for machine consumption.

use std::io::Write;

use mfpa_bench::{all_experiments, Ctx};
use mfpa_fleetsim::FleetConfig;

struct Args {
    targets: Vec<String>,
    seed: u64,
    fraction: Option<f64>,
    boost: Option<f64>,
    horizon: Option<i64>,
    json_path: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        targets: Vec::new(),
        seed: 42,
        fraction: None,
        boost: None,
        horizon: None,
        json_path: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                args.seed = grab("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--fraction" => {
                args.fraction = Some(
                    grab("--fraction")?
                        .parse()
                        .map_err(|e| format!("--fraction: {e}"))?,
                )
            }
            "--boost" => {
                args.boost = Some(
                    grab("--boost")?
                        .parse()
                        .map_err(|e| format!("--boost: {e}"))?,
                )
            }
            "--horizon" => {
                args.horizon = Some(
                    grab("--horizon")?
                        .parse()
                        .map_err(|e| format!("--horizon: {e}"))?,
                )
            }
            "--json" => args.json_path = Some(grab("--json")?),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => args.targets.push(other.to_owned()),
        }
    }
    if args.targets.is_empty() {
        args.targets.push("list".to_owned());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let experiments = all_experiments();

    if args.targets.iter().any(|t| t == "list") {
        println!("available experiments:");
        for e in &experiments {
            println!("  {:<14} {}", e.id, e.title);
        }
        println!("  {:<14} run every experiment above", "all");
        return;
    }

    let mut base = FleetConfig::new(args.seed);
    if let Some(f) = args.fraction {
        base = base.with_population_fraction(f);
    }
    if let Some(b) = args.boost {
        base = base.with_hazard_boost(b);
    }
    if let Some(h) = args.horizon {
        base = base.with_horizon_days(h);
    }
    let ctx = Ctx::new(base);

    let selected: Vec<_> = if args.targets.iter().any(|t| t == "all") {
        experiments.iter().collect()
    } else {
        let mut sel = Vec::new();
        for t in &args.targets {
            match experiments.iter().find(|e| e.id == *t) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("error: unknown experiment '{t}' (try `repro list`)");
                    std::process::exit(2);
                }
            }
        }
        sel
    };

    let mut json_out = args.json_path.as_ref().map(|p| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
            .unwrap_or_else(|e| panic!("cannot open {p}: {e}"))
    });

    for e in selected {
        let t0 = std::time::Instant::now();
        let value = (e.run)(&ctx);
        eprintln!("[{}] done in {:.1}s", e.id, t0.elapsed().as_secs_f64());
        if let Some(f) = json_out.as_mut() {
            let line = serde_json::json!({ "id": e.id, "title": e.title, "result": value });
            writeln!(f, "{line}").expect("write json line");
        }
    }
}
