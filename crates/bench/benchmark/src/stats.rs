//! Order statistics and process measurements shared by the workloads
//! and `--compare`.

/// Percentiles a tail metric may report, in per mille, highest first.
/// The median is reported on its own, so it is not a tail rung.
const TAIL_RUNGS_PERMILLE: [u64; 4] = [990, 950, 900, 750];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// First quartile, median and third quartile of `xs`, computed as
/// Python's `statistics.quantiles(xs, n=4)` (its default "exclusive"
/// method), so a spread reads the same here as in any script that
/// checks it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative or above 4 only for n = 2, where Python extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Median of `xs` (the middle value of [`quartiles`]).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// Nearest-rank percentile of an ascending slice, `permille` in 1..=1000.
fn percentile_permille(sorted: &[f64], permille: u64) -> f64 {
    let rank = (sorted.len() as u64 * permille).div_ceil(1000).max(1);
    sorted[rank as usize - 1]
}

/// The highest tail rung that leaves at least ten of `n` samples beyond
/// it, in per mille; `None` when even p75 would not.
pub fn tail_rung(n: usize) -> Option<u64> {
    TAIL_RUNGS_PERMILLE.into_iter().find(|&p| {
        let rank = (n as u64 * p).div_ceil(1000) as usize;
        n - rank >= TAIL_MIN_BEYOND
    })
}

/// The tail of a latency sample: the highest rung [`tail_rung`] allows,
/// or the maximum when the sample is too small for any rung. Returns
/// `(value, percentile)`, with percentile 100 for the maximum.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match tail_rung(sorted.len()) {
        Some(p) => (percentile_permille(&sorted, p), p as f64 / 10.0),
        None => (sorted[sorted.len() - 1], 100.0),
    }
}

/// One line of summary for a sample: its size and quartiles.
pub fn describe(xs: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(xs);
    format!("n={} q1={q1:.6} median={q2:.6} q3={q3:.6}", xs.len())
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident set size so far, in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status, which needs Linux");
    let kib = parse_vm_hwm_kib(&status).expect("/proc/self/status has a VmHWM line in kB");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2, 5], n=4): order-free.
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn tail_rung_keeps_ten_samples_beyond() {
        assert_eq!(tail_rung(39), None);
        assert_eq!(tail_rung(40), Some(750));
        assert_eq!(tail_rung(100), Some(900));
        assert_eq!(tail_rung(200), Some(950));
        assert_eq!(tail_rung(999), Some(950));
        assert_eq!(tail_rung(1000), Some(990));
        // 1,983 batch latencies: p99 leaves 19 samples beyond it.
        assert_eq!(tail_rung(1983), Some(990));
        assert_eq!(tail_rung(1_000_000), Some(990));
    }

    #[test]
    fn tail_is_the_rung_or_the_maximum() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (990.0, 99.0));
        let few = [3.0, 9.0, 1.0];
        assert_eq!(tail(&few), (9.0, 100.0));
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 90.0));
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status =
            "Name:\tmfpa-benchmark\nVmPeak:\t  900 kB\nVmHWM:\t  187416 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(187_416));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
