//! Evaluation reports: the metric sets and stage timings every
//! experiment binary prints.

use std::fmt;

use mfpa_ml::metrics::ConfusionMatrix;

/// A confusion matrix plus ranking quality at one evaluation granularity
/// (per-sample or per-drive).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricSet {
    /// Confusion matrix at the decision threshold.
    pub cm: ConfusionMatrix,
    /// Area under the ROC curve (threshold-free).
    pub auc: f64,
}

impl MetricSet {
    /// True positive rate.
    pub fn tpr(&self) -> f64 {
        self.cm.tpr()
    }

    /// False positive rate.
    pub fn fpr(&self) -> f64 {
        self.cm.fpr()
    }

    /// Accuracy.
    pub fn acc(&self) -> f64 {
        self.cm.accuracy()
    }

    /// Positive detection rate (the paper's PDR).
    pub fn pdr(&self) -> f64 {
        self.cm.pdr()
    }
}

impl fmt::Display for MetricSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TPR={:6.2}% FPR={:6.2}% ACC={:6.2}% PDR={:6.2}% AUC={:.4}",
            self.tpr() * 100.0,
            self.fpr() * 100.0,
            self.acc() * 100.0,
            self.pdr() * 100.0,
            self.auc
        )
    }
}

/// Wall-clock and volume accounting per pipeline stage (Fig 20).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Worker threads the parallel stages resolved to (0 when the run
    /// never reached them). Stage seconds for parallel stages are summed
    /// per-worker work, so they can exceed wall-clock by up to this
    /// factor.
    pub n_threads: usize,
    /// Raw telemetry records consumed.
    pub n_raw_records: usize,
    /// Seconds spent sanitizing raw telemetry (zero when disabled).
    pub sanitize_secs: f64,
    /// Records the sanitization stage quarantined, by any cause: the
    /// records serving would refuse too.
    pub n_quarantined: usize,
    /// Repairs the sanitization stage applied: rollover splices, imputed
    /// values, collapsed duplicates and arrivals the reorder window
    /// re-sequenced.
    pub n_repaired: usize,
    /// Seconds spent in preprocessing (gap handling + feature rows).
    pub preprocess_secs: f64,
    /// Seconds spent aligning tickets (θ labelling): the sum of the
    /// per-drive labelling times, since preparation labels each drive as
    /// its series is built.
    pub labeling_secs: f64,
    /// Seconds spent assembling sample frames: the sum of the per-drive
    /// appends to the frames, since preparation windows each drive as
    /// its series is built.
    pub sampling_secs: f64,
    /// Training rows after under-sampling.
    pub n_train_rows: usize,
    /// Seconds spent fitting the model.
    pub train_secs: f64,
    /// Test rows scored.
    pub n_test_rows: usize,
    /// Seconds spent predicting the test rows.
    pub predict_secs: f64,
    /// Approximate bytes held by the assembled sample frames: the
    /// encoded size of the delta-encoded flat view (change masks,
    /// stored cells, run index, metadata and labels) plus the dense
    /// sequence view.
    pub frame_bytes: usize,
}

impl StageTimings {
    /// Mean prediction latency per row, in microseconds.
    pub fn predict_micros_per_row(&self) -> f64 {
        if self.n_test_rows == 0 {
            0.0
        } else {
            self.predict_secs * 1e6 / self.n_test_rows as f64
        }
    }
}

/// The result of one pipeline run.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Human-readable experiment label.
    pub name: String,
    /// Per-sample (drive-day) metrics.
    pub sample: MetricSet,
    /// Per-drive metrics (a drive is flagged if any of its test rows
    /// crosses the threshold).
    pub drive: MetricSet,
    /// Test drives evaluated.
    pub n_test_drives: usize,
    /// Faulty drives among them.
    pub n_failed_test_drives: usize,
    /// Stage accounting.
    pub timings: StageTimings,
}

impl fmt::Display for EvalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.name)?;
        writeln!(f, "  drive : {}", self.drive)?;
        writeln!(f, "  sample: {}", self.sample)?;
        write!(
            f,
            "  test drives: {} ({} faulty) | rows: {} train / {} test",
            self.n_test_drives,
            self.n_failed_test_drives,
            self.timings.n_train_rows,
            self.timings.n_test_rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(tp: u64, fp: u64, tn: u64, fn_: u64, auc: f64) -> MetricSet {
        MetricSet {
            cm: ConfusionMatrix { tp, fp, tn, fn_ },
            auc,
        }
    }

    #[test]
    fn metric_accessors_delegate() {
        let m = metric(9, 1, 99, 1, 0.99);
        assert!((m.tpr() - 0.9).abs() < 1e-12);
        assert!((m.fpr() - 0.01).abs() < 1e-12);
        assert!((m.pdr() - 10.0 / 110.0).abs() < 1e-12);
        assert!(m.acc() > 0.98);
    }

    #[test]
    fn display_formats_percentages() {
        let m = metric(98, 1, 199, 2, 0.998);
        let s = m.to_string();
        assert!(s.contains("TPR= 98.00%"), "{s}");
        assert!(s.contains("AUC=0.9980"), "{s}");
    }

    #[test]
    fn timings_micros_per_row() {
        let t = StageTimings {
            n_test_rows: 1000,
            predict_secs: 0.01,
            ..Default::default()
        };
        assert!((t.predict_micros_per_row() - 10.0).abs() < 1e-9);
        assert_eq!(StageTimings::default().predict_micros_per_row(), 0.0);
    }

    #[test]
    fn report_display_contains_counts() {
        let r = EvalReport {
            name: "demo".into(),
            sample: metric(1, 0, 1, 0, 1.0),
            drive: metric(1, 0, 1, 0, 1.0),
            n_test_drives: 2,
            n_failed_test_drives: 1,
            timings: StageTimings::default(),
        };
        let s = r.to_string();
        assert!(s.contains("[demo]"));
        assert!(s.contains("test drives: 2 (1 faulty)"));
    }
}
