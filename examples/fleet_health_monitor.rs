//! Fleet health monitor: the deployment scenario from the paper's
//! introduction — proactively flag consumer machines whose SSD is about
//! to fail so data can be backed up *before* the blue screen.
//!
//! Trains MFPA on the first 70% of the observation campaign, then scores
//! every drive's most recent telemetry and prints the at-risk ranking a
//! PC manufacturer's support backend would push notifications from.
//!
//! ```text
//! cargo run --release --example fleet_health_monitor
//! ```

use mfpa_core::{Algorithm, CoreError, FeatureGroup, Mfpa, MfpaConfig};
use mfpa_fleetsim::{FleetConfig, SimulatedFleet};

fn main() -> Result<(), CoreError> {
    let fleet = SimulatedFleet::generate(&FleetConfig::tiny(7));
    let mfpa = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest));
    let prepared = mfpa.prepare(&fleet)?;

    // Train on the learning window (first 70% of sample time).
    let times = prepared.samples().flat.times();
    let split = mfpa_dataset::split::timepoint_split_fraction(&times, 0.7)?;
    let trained = mfpa.train_rows(&prepared, &split.train)?;
    println!(
        "trained {} on {} balanced samples",
        trained.model_name(),
        trained.n_train_rows()
    );

    // "Live" scoring: the single most recent row of each drive in the
    // deployment window. Ordered by drive, so the row order and the
    // order of tied ranks are the same on every run.
    let meta = prepared.samples().flat.meta();
    let mut latest: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for &row in &split.test {
        let e = latest.entry(meta[row].group).or_insert(row);
        if meta[row].time > meta[*e].time {
            *e = row;
        }
    }
    let rows: Vec<usize> = latest.values().copied().collect();
    let scores = trained.predict_rows(&prepared, &rows)?;

    let mut ranked: Vec<(usize, f64)> = rows.iter().copied().zip(scores).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

    println!("\ntop 10 at-risk drives (back up NOW):");
    println!(
        "  {:<22} {:>8} {:>12} {:>10}",
        "drive group", "day", "P(failure)", "actual"
    );
    let failure_groups: std::collections::HashSet<u64> = prepared
        .failure_days()
        .keys()
        .map(|s| mfpa_core::windows::group_of(*s))
        .collect();
    for &(row, p) in ranked.iter().take(10) {
        let m = &meta[row];
        let actual = if failure_groups.contains(&m.group) {
            "FAILED"
        } else {
            "healthy"
        };
        println!(
            "  {:<22} {:>8} {:>11.1}% {:>10}",
            m.group,
            m.time,
            p * 100.0,
            actual
        );
    }

    let flagged = ranked.iter().filter(|&&(_, p)| p >= 0.5).count();
    println!(
        "\n{} of {} monitored drives flagged for proactive data migration",
        flagged,
        ranked.len()
    );
    Ok(())
}
