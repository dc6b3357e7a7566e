//! Sample construction: positive pre-failure windows, lookahead shift,
//! negative sampling, and aligned sequence windows for CNN_LSTM.
//!
//! §III-C(3): "Faulty SSDs data collected within 7, 14, or 21 days before
//! failures are generally selected as positive samples. The negative
//! samples are selected from the healthy SSDs." The lookahead sweep
//! (Fig 19) shifts the positive window N days away from the failure: a
//! model asked to alarm N days in advance only sees data at least N days
//! old relative to the failure.

use std::collections::BTreeMap;

use mfpa_dataset::{DatasetError, DeltaFrame, FeatureFrame, SampleMeta};
use mfpa_telemetry::SerialNumber;

use crate::feature_state::ROW_WIDTH;
use crate::features::FeatureId;
use crate::preprocess::CleanSeries;

/// Sample-window configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Days before the failure whose rows become positive samples.
    pub positive_window: i64,
    /// Lookahead N: the positive window ends N days *before* the failure.
    pub lookahead: i64,
    /// Sequence length for the aligned CNN_LSTM view.
    pub seq_len: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            positive_window: 14,
            lookahead: 0,
            seq_len: 5,
        }
    }
}

/// The assembled sample set: a flat per-day view (45 columns) and an
/// aligned sequence view (`seq_len × 45` columns) over the same rows.
#[derive(Debug, Clone)]
pub struct SampleSet {
    /// One row per selected drive-day, full feature row. Each drive's
    /// rows are contiguous and in day order, so the frame stores every
    /// row after a drive's first as its changes from the drive's
    /// previous row.
    pub flat: DeltaFrame,
    /// The same rows as trailing windows of `seq_len` days (oldest
    /// first, front-padded by repeating the earliest row).
    pub seq: FeatureFrame,
    /// Labelled failures whose positive window contained no telemetry
    /// (`(group, label day)`): the paper's "faulty disks with no data
    /// around IMT − θ". They are unpredictable by construction and must
    /// count as drive-level misses during evaluation.
    pub unwindowed_failures: Vec<(u64, i64)>,
}

/// A stable numeric group handle for a drive (vendor in the high bits).
pub fn group_of(serial: SerialNumber) -> u64 {
    ((serial.vendor().index() as u64) << 48) | (serial.id() & 0xFFFF_FFFF_FFFF)
}

/// Builds samples from preprocessed series.
///
/// `failure_days` maps ticketed drives to their θ-identified failure day.
/// Rows of failed drives inside the (lookahead-shifted) positive window
/// become positives; *all* rows of unticketed drives become negatives;
/// rows of failed drives outside the window are discarded (their health
/// state is ambiguous).
///
/// # Errors
///
/// Returns a [`DatasetError`] only on internal width mismatches, or a
/// row too wide for the flat frame's change masks (both bugs), so
/// callers can `?` it.
pub fn build_samples(
    series: &[CleanSeries],
    failure_days: &BTreeMap<SerialNumber, i64>,
    config: &WindowConfig,
) -> Result<SampleSet, DatasetError> {
    build_samples_for(series, failure_days, config, true)
}

/// [`build_samples`] with control over the sequence view: flat-only
/// callers (tree/linear models) can skip it, halving sample-assembly
/// time and memory. When skipped, `seq` is an empty frame. This is a
/// loop of [`SampleBuilder::push_drive`] over the series.
///
/// # Errors
///
/// Same as [`build_samples`].
pub fn build_samples_for(
    series: &[CleanSeries],
    failure_days: &BTreeMap<SerialNumber, i64>,
    config: &WindowConfig,
    build_seq: bool,
) -> Result<SampleSet, DatasetError> {
    let mut builder = SampleBuilder::new(config, build_seq)?;
    for s in series {
        builder.push_drive(s, failure_days.get(&s.serial).copied())?;
    }
    Ok(builder.finish())
}

/// Assembles a [`SampleSet`] one drive at a time, so a caller can drop
/// each [`CleanSeries`] as soon as its rows are in the frame
/// ([`crate::Mfpa::prepare`] streams the fleet through one). Each
/// drive's rows are appended contiguously, in day order; pushing the
/// series of [`build_samples_for`] in the same order gives the same set
/// bit for bit.
#[derive(Debug)]
pub struct SampleBuilder {
    config: WindowConfig,
    build_seq: bool,
    flat: DeltaFrame,
    seq: FeatureFrame,
    seq_buf: Vec<f64>,
    unwindowed_failures: Vec<(u64, i64)>,
}

impl SampleBuilder {
    /// An empty builder; `build_seq` as in [`build_samples_for`].
    ///
    /// # Errors
    ///
    /// Same as [`build_samples`].
    pub fn new(config: &WindowConfig, build_seq: bool) -> Result<Self, DatasetError> {
        let names: Vec<String> = FeatureId::full_row()
            .iter()
            .map(|f| f.to_string())
            .collect();
        let seq_names: Vec<String> = (0..config.seq_len)
            .flat_map(|t| {
                let back = config.seq_len - 1 - t;
                names.iter().map(move |n| format!("t-{back}:{n}"))
            })
            .collect();
        Ok(SampleBuilder {
            config: *config,
            build_seq,
            seq_buf: vec![0.0; config.seq_len * names.len()],
            flat: DeltaFrame::new(names)?,
            seq: FeatureFrame::new(seq_names),
            unwindowed_failures: Vec::new(),
        })
    }

    /// Appends one drive's samples. `failure_day` is the drive's
    /// θ-identified failure day, `None` for a drive with no usable
    /// ticket: rows inside the (lookahead-shifted) positive window of a
    /// failed drive become positives, every row of an unticketed drive
    /// becomes a negative, and the rest of a failed drive is discarded.
    ///
    /// # Errors
    ///
    /// Same as [`build_samples`].
    pub fn push_drive(
        &mut self,
        series: &CleanSeries,
        failure_day: Option<i64>,
    ) -> Result<(), DatasetError> {
        let config = &self.config;
        let group = group_of(series.serial);
        let tag = series.vendor.index() as u32;
        let mut emitted_positive = false;
        for (ix, &day) in series.days.iter().enumerate() {
            let label = match failure_day {
                Some(fd) => {
                    let hi = fd - config.lookahead;
                    let lo = hi - config.positive_window + 1;
                    if day > hi || day < lo {
                        continue; // ambiguous region of a faulty drive
                    }
                    emitted_positive = true;
                    true
                }
                None => false,
            };
            let meta = SampleMeta::with_tag(group, day, tag);
            self.flat.push_row(series.row(ix), meta, label)?;
            if self.build_seq {
                // Trailing window, oldest first, front-padded with row 0.
                for (t, step) in self.seq_buf.chunks_exact_mut(ROW_WIDTH).enumerate() {
                    let back = config.seq_len - 1 - t;
                    step.copy_from_slice(series.row(ix.saturating_sub(back)));
                }
                self.seq.push_row(&self.seq_buf, meta, label)?;
            }
        }
        if let Some(fd) = failure_day {
            if !emitted_positive {
                self.unwindowed_failures
                    .push((group, fd - config.lookahead));
            }
        }
        Ok(())
    }

    /// The assembled sample set.
    pub fn finish(self) -> SampleSet {
        SampleSet {
            flat: self.flat,
            seq: self.seq,
            unwindowed_failures: self.unwindowed_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_telemetry::Vendor;

    fn series(id: u64, days: &[i64]) -> CleanSeries {
        CleanSeries {
            serial: SerialNumber::new(Vendor::I, id),
            vendor: Vendor::I,
            days: days.to_vec(),
            rows: days
                .iter()
                .flat_map(|&d| {
                    let mut r = [0.0; ROW_WIDTH];
                    r[0] = d as f64; // marker feature
                    r
                })
                .collect(),
            imputed: vec![false; days.len()],
        }
    }

    fn labels(id: u64, day: i64) -> BTreeMap<SerialNumber, i64> {
        let mut m = BTreeMap::new();
        m.insert(SerialNumber::new(Vendor::I, id), day);
        m
    }

    #[test]
    fn positive_window_selects_pre_failure_rows() {
        let s = series(1, &(0..=50).collect::<Vec<_>>());
        let cfg = WindowConfig {
            positive_window: 7,
            lookahead: 0,
            seq_len: 3,
        };
        let set = build_samples(&[s], &labels(1, 50), &cfg).unwrap();
        // Days 44..=50 are positive; earlier days discarded.
        assert_eq!(set.flat.n_rows(), 7);
        assert!(set.flat.labels().iter().all(|&l| l));
        let times = set.flat.times();
        assert_eq!(*times.iter().min().unwrap(), 44);
        assert_eq!(*times.iter().max().unwrap(), 50);
    }

    #[test]
    fn lookahead_shifts_window_back() {
        let s = series(1, &(0..=50).collect::<Vec<_>>());
        let cfg = WindowConfig {
            positive_window: 7,
            lookahead: 10,
            seq_len: 3,
        };
        let set = build_samples(&[s], &labels(1, 50), &cfg).unwrap();
        let times = set.flat.times();
        assert_eq!(*times.iter().max().unwrap(), 40);
        assert_eq!(*times.iter().min().unwrap(), 34);
    }

    #[test]
    fn healthy_rows_all_negative() {
        let s = series(2, &[0, 1, 2, 3]);
        let set = build_samples(&[s], &BTreeMap::new(), &WindowConfig::default()).unwrap();
        assert_eq!(set.flat.n_rows(), 4);
        assert_eq!(set.flat.n_positive(), 0);
    }

    #[test]
    fn seq_view_aligned_and_padded() {
        let s = series(3, &[10, 11, 12]);
        let cfg = WindowConfig {
            positive_window: 14,
            lookahead: 0,
            seq_len: 3,
        };
        let set = build_samples(&[s], &BTreeMap::new(), &cfg).unwrap();
        assert_eq!(set.seq.n_rows(), set.flat.n_rows());
        assert_eq!(set.seq.n_cols(), 3 * 45);
        // First row: all three steps padded with day-10's row.
        let r0 = set.seq.matrix().row(0);
        assert_eq!(r0[0], 10.0);
        assert_eq!(r0[45], 10.0);
        assert_eq!(r0[90], 10.0);
        // Last row: steps are days 10, 11, 12 in order.
        let r2 = set.seq.matrix().row(2);
        assert_eq!((r2[0], r2[45], r2[90]), (10.0, 11.0, 12.0));
        // Metadata mirrors the flat view.
        assert_eq!(set.seq.meta(), set.flat.meta());
    }

    #[test]
    fn groups_distinguish_drives_and_vendors() {
        let a = group_of(SerialNumber::new(Vendor::I, 5));
        let b = group_of(SerialNumber::new(Vendor::II, 5));
        let c = group_of(SerialNumber::new(Vendor::I, 6));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    /// Every decoded flat row of a real fleet is its series row, bit for
    /// bit, with the series' metadata.
    #[test]
    fn decoded_flat_rows_equal_series_rows() {
        use crate::labeling::{label_failures, LabelingConfig};
        use crate::preprocess::{preprocess, PreprocessConfig};
        use mfpa_fleetsim::{FleetConfig, SimulatedFleet};

        let fleet = SimulatedFleet::generate(&FleetConfig::tiny(11));
        let series: Vec<CleanSeries> = fleet
            .drives()
            .iter()
            .filter_map(|d| preprocess(d.history(), d.firmware(), &PreprocessConfig::default()))
            .collect();
        let failure_days = label_failures(&series, fleet.tickets(), &LabelingConfig::default());
        let set =
            build_samples_for(&series, &failure_days, &WindowConfig::default(), false).unwrap();
        assert!(set.flat.n_positive() > 0);
        let by_group: BTreeMap<u64, &CleanSeries> =
            series.iter().map(|s| (group_of(s.serial), s)).collect();
        let mut cursor = set.flat.cursor();
        for (r, meta) in set.flat.meta().iter().enumerate() {
            let s = by_group[&meta.group];
            assert_eq!(meta.tag, s.vendor.index() as u32);
            let ix = s.days.binary_search(&meta.time).expect("a series day");
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(cursor.seek(r)), bits(s.row(ix)), "row {r}");
        }
        // Most cells repeat the drive's previous day.
        let stored = set.flat.changed_cells().len();
        assert!(stored * 2 < set.flat.n_rows() * ROW_WIDTH, "{stored} cells");
    }

    #[test]
    fn failed_drive_without_window_rows_contributes_nothing() {
        // All data ends 30 days before the labelled failure.
        let s = series(4, &[0, 1, 2, 3, 4]);
        let set = build_samples(&[s], &labels(4, 40), &WindowConfig::default()).unwrap();
        assert_eq!(set.flat.n_rows(), 0);
    }
}
