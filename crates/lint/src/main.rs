//! CLI for the workspace determinism-and-robustness lint pass.
//!
//! ```text
//! mfpa-lint [--root PATH] [--format human|json] [--report PATH]
//! ```
//!
//! Exit codes (CI semantics): `0` clean, `1` unsuppressed violations,
//! `2` usage or I/O error.
//!
//! A run never edits sources: unused `allow(...)` comments are
//! reported as `lint` findings.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    format: Format,
    report: Option<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        format: Format::Human,
        report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--root" => args.root = Some(PathBuf::from(grab("--root")?)),
            "--format" => {
                args.format = match grab("--format")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--report" => args.report = Some(PathBuf::from(grab("--report")?)),
            "--help" | "-h" => {
                println!("mfpa-lint [--root PATH] [--format human|json] [--report PATH]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = match args.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            mfpa_lint::find_workspace_root(&cwd)
                .ok_or("no workspace Cargo.toml above the current directory (use --root)")?
        }
    };
    let report = mfpa_lint::lint_workspace(&root).map_err(|e| e.to_string())?;
    match args.format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => println!("{}", report.to_json()),
    }
    if let Some(path) = args.report {
        let snapshot = mfpa_lint::pretty_json(&report.snapshot_json());
        std::fs::write(&path, snapshot).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(report.is_clean())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mfpa-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}
