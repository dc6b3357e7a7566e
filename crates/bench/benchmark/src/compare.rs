//! `--compare PARENT_DIR CHANGE_DIR`: judges a change against its parent
//! from two directories of untraced run files, with the bounds of
//! `BENCHMARK.json`.
//!
//! Runs pair up by workload and seed. For each workload and end-to-end
//! metric it prints both sides' medians and quartiles, the change's win
//! share over the pairs, and a verdict:
//!
//! * **improved** — the change wins at least nine tenths of the pairs
//!   (ties count for neither) and the medians differ by more than the
//!   parent's own quartile spread;
//! * **unresolved** — the parent's runs spread wider than the bound, and
//!   not every change run reads better than every parent run;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **within bound** — otherwise.
//!
//! It also flags seeds whose output digests differ and any rise in the
//! error rate. The result is `false` on a regression, a digest
//! difference or an error-rate rise.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::catalog::Catalog;
use crate::stats::quartiles;

/// One untraced run file, reduced to what the comparison reads.
#[derive(Debug, Clone)]
struct RunRecord {
    seed: u64,
    attempted: f64,
    failed: f64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric, and the change's share of pair wins.
/// `pairs` holds `(parent, change)` values of runs with the same seed.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    higher_is_better: bool,
    bound: f64,
) -> (Verdict, f64) {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    let share = wins as f64 / pairs.len().max(1) as f64;
    let [p1, pm, p3] = quartiles(parent);
    let cm = quartiles(change)[1];
    let spread = p3 - p1;
    let worse_by = if higher_is_better { pm - cm } else { cm - pm } / pm.abs();
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let v = if !pairs.is_empty() && share >= 0.9 && better(cm, pm) && (cm - pm).abs() > spread {
        Verdict::Improved
    } else if spread / pm.abs() > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    (v, share)
}

fn load(dir: &Path) -> Result<BTreeMap<String, Vec<RunRecord>>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs: BTreeMap<String, Vec<RunRecord>> = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let num = |k: &str| run.get(k).and_then(Value::as_f64);
        let (Some(workload), Some(seed)) =
            (run.get("workload").and_then(Value::as_str), num("seed"))
        else {
            return Err(format!("{} is not a benchmark run file", path.display()));
        };
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        runs.entry(workload.to_owned())
            .or_default()
            .push(RunRecord {
                seed: seed as u64,
                attempted: num("attempted").unwrap_or(0.0),
                failed: num("failed").unwrap_or(0.0),
                digest: run
                    .get("digest")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
                metrics,
            });
    }
    Ok(runs)
}

/// Failed and attempted operations summed over `runs`.
fn errors(runs: &[RunRecord]) -> (f64, f64) {
    runs.iter()
        .fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted))
}

/// Prints the comparison; `Ok(false)` when the change regressed, changed
/// an output digest or raised the error rate.
pub fn compare(parent_dir: &Path, change_dir: &Path, catalog: &Catalog) -> Result<bool, String> {
    let parent = load(parent_dir)?;
    let change = load(change_dir)?;
    let mut ok = true;
    println!(
        "{:<8} {:<15} {:>44} {:>44} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "wins"
    );
    for workload in &catalog.workloads {
        let (Some(p_runs), Some(c_runs)) = (parent.get(workload), change.get(workload)) else {
            println!("{workload:<8} no runs on both sides");
            continue;
        };
        for def in &catalog.end_to_end {
            let values = |runs: &[RunRecord]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&def.name).copied())
                    .collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            if p.is_empty() || c.is_empty() {
                println!("{workload:<8} {:<15} missing", def.name);
                continue;
            }
            let pairs: Vec<(f64, f64)> = p_runs
                .iter()
                .filter_map(|pr| {
                    let cr = c_runs.iter().find(|cr| cr.seed == pr.seed)?;
                    Some((*pr.metrics.get(&def.name)?, *cr.metrics.get(&def.name)?))
                })
                .collect();
            let bound = def.bound.unwrap_or(0.0);
            let (v, share) = verdict(&p, &c, &pairs, def.higher_is_better, bound);
            ok &= v != Verdict::Regressed;
            let side = |xs: &[f64]| {
                let [q1, q2, q3] = quartiles(xs);
                format!("{q2:.4} [{q1:.4}, {q3:.4}] ({})", xs.len())
            };
            println!(
                "{workload:<8} {:<15} {:>44} {:>44} {:>5.0}%  {} (bound {:.0}%, {} {})",
                def.name,
                side(&p),
                side(&c),
                share * 100.0,
                v.label(),
                bound * 100.0,
                def.unit,
                if def.higher_is_better {
                    "higher is better"
                } else {
                    "lower is better"
                },
            );
        }
        for pr in p_runs {
            if let Some(cr) = c_runs.iter().find(|cr| cr.seed == pr.seed) {
                if cr.digest != pr.digest {
                    ok = false;
                    println!(
                        "{workload:<8} seed {}: output digest differs ({} -> {})",
                        pr.seed, pr.digest, cr.digest
                    );
                }
            }
        }
        let ((pf, pa), (cf, ca)) = (errors(p_runs), errors(c_runs));
        if cf / ca.max(1.0) > pf / pa.max(1.0) {
            ok = false;
            println!("{workload:<8} error rate rose: {pf} of {pa} failed -> {cf} of {ca} failed");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i % 5)).collect()
    }

    fn paired(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    #[test]
    fn a_clear_speedup_is_an_improvement() {
        let p = runs(100.0, 1.0);
        let c = runs(80.0, 1.0);
        let (v, share) = verdict(&p, &c, &paired(&p, &c), false, 0.1);
        assert_eq!(v, Verdict::Improved);
        assert_eq!(share, 1.0);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression() {
        let p = runs(100.0, 1.0);
        let c = runs(80.0, 1.0);
        // Throughput: higher is better, so the same numbers regress.
        let (v, share) = verdict(&p, &c, &paired(&p, &c), true, 0.1);
        assert_eq!(v, Verdict::Regressed);
        assert_eq!(share, 0.0);
    }

    #[test]
    fn small_moves_stay_within_bound() {
        let p = runs(100.0, 1.0);
        let c = runs(103.0, 1.0);
        let (v, _) = verdict(&p, &c, &paired(&p, &c), false, 0.1);
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let p = runs(100.0, 20.0);
        let c = runs(105.0, 20.0);
        let (v, _) = verdict(&p, &c, &paired(&p, &c), false, 0.1);
        assert_eq!(v, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let fast: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i)).collect();
        let (v, _) = verdict(&p, &fast, &paired(&p, &fast), false, 0.1);
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let p = vec![1.0; 10];
        let (v, share) = verdict(&p, &p, &paired(&p, &p), false, 0.1);
        assert_eq!(v, Verdict::WithinBound);
        assert_eq!(share, 0.0);
    }
}
