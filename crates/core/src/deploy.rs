//! Client-side deployment: incremental per-drive scoring.
//!
//! §IV Fig 20: "Microsecond prediction can be achieved for the model
//! deployed on the client side. The model is iterated every two months
//! and pushed to the user for updates." A [`DriveMonitor`] lives on one
//! machine, ingests that machine's daily telemetry record, maintains the
//! cumulative multidimensional feature row incrementally, and scores it
//! against a trained MFPA model — no batch pipeline required.

use mfpa_dataset::Matrix;
use mfpa_fleetsim::SimulatedDrive;
use mfpa_par::{ordered_map, Workers};
use mfpa_telemetry::{DailyRecord, DayStamp, FirmwareVersion, SerialNumber, SmartAttr};

use crate::error::CoreError;
use crate::feature_state::{FeatureState, ROW_WIDTH};
use crate::features::FeatureId;
use crate::pipeline::TrainedMfpa;
use crate::sanitize::{replay, QuarantineCause, SanitizeConfig, SanitizeReport, SENTINEL_CEILING};

/// Incremental feature state for one monitored drive.
///
/// Feed records one at a time via [`DriveMonitor::ingest`], or a stored
/// stream via [`DriveMonitor::ingest_stream`]; each accepted record
/// yields the current full 45-column feature row. [`DriveMonitor::score`]
/// additionally runs a trained (flat) MFPA model over it.
///
/// # Example
///
/// ```
/// use mfpa_core::deploy::DriveMonitor;
/// use mfpa_telemetry::{DailyRecord, DayStamp, FirmwareVersion, SerialNumber,
///                      SmartValues, Vendor};
///
/// let fw = FirmwareVersion::new(Vendor::I, 2);
/// let mut monitor = DriveMonitor::new(SerialNumber::new(Vendor::I, 1), fw.clone());
/// let record = DailyRecord {
///     day: DayStamp::new(0),
///     smart: SmartValues::from_array([1.0; 16]),
///     firmware: fw,
///     w_counts: [1, 0, 0, 0, 0, 0, 0, 0, 0],
///     b_counts: [0; 23],
/// };
/// let row = monitor.ingest(&record)?;
/// assert_eq!(row.len(), 45);
/// # Ok::<(), mfpa_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DriveMonitor {
    // Fields are crate-visible so the fleet monitor's checkpoint codec
    // ([`crate::checkpoint`]) can snapshot and restore a monitor
    // bit-for-bit without an intermediate copy.
    pub(crate) serial: SerialNumber,
    pub(crate) features: FeatureState,
    pub(crate) last_day: Option<DayStamp>,
    pub(crate) sanitize_cfg: SanitizeConfig,
    // Row returned for the last accepted day — replayed for exact
    // duplicate deliveries so retransmissions are idempotent. Always
    // `features.feature_row()`, so checkpoints rebuild rather than
    // store it.
    pub(crate) last_row: Vec<f64>,
    pub(crate) report: SanitizeReport,
}

impl DriveMonitor {
    /// Creates a monitor for one drive, with the default online
    /// sanitization policy.
    pub fn new(serial: SerialNumber, firmware: FirmwareVersion) -> Self {
        DriveMonitor::with_sanitize(serial, firmware, SanitizeConfig::default())
    }

    /// Creates a monitor with an explicit online sanitization policy.
    pub fn with_sanitize(
        serial: SerialNumber,
        firmware: FirmwareVersion,
        sanitize_cfg: SanitizeConfig,
    ) -> Self {
        DriveMonitor {
            serial,
            features: FeatureState::new(firmware),
            last_day: None,
            sanitize_cfg,
            last_row: Vec::new(),
            report: SanitizeReport::default(),
        }
    }

    /// The monitored drive's serial.
    pub fn serial(&self) -> SerialNumber {
        self.serial
    }

    /// The last ingested day, if any.
    pub fn last_day(&self) -> Option<DayStamp> {
        self.last_day
    }

    /// Online-sanitization accounting over this monitor's lifetime:
    /// quarantined deliveries, imputed attributes, rollover repairs and
    /// collapsed duplicates.
    pub fn sanitize_report(&self) -> &SanitizeReport {
        &self.report
    }

    /// Ingests one daily record and returns the current full feature row
    /// (canonical [`FeatureId::full_row`] order).
    ///
    /// The record goes through the admission step the offline
    /// [`crate::sanitize`] stage folds: sentinel/range pages are
    /// quarantined, a re-delivery of the newest day is answered
    /// idempotently with the same row (the first delivery wins, so a
    /// retransmission cannot double the cumulative counters), and NaN
    /// carry-forward, rollover repair and the row itself are the very
    /// step `raw_rows(sanitize(..))` folds. A record behind the newest
    /// day is refused: put [`DriveMonitor::ingest_stream`]'s reorder
    /// window in front to re-sequence a stream as `sanitize` does.
    ///
    /// # Errors
    ///
    /// * [`CoreError::OutOfOrderRecord`] for a record *before* the
    ///   newest ingested day.
    /// * [`CoreError::CorruptRecord`] for quarantined deliveries
    ///   (sentinel page, out-of-range value, or missing attributes with
    ///   no history to impute from).
    pub fn ingest(&mut self, record: &DailyRecord) -> Result<Vec<f64>, CoreError> {
        self.ingest_ref(record).map(<[f64]>::to_vec)
    }

    /// [`DriveMonitor::ingest`] without the row copy: returns a borrow
    /// of the monitor's internal row buffer, which is overwritten by
    /// the next accepted record. This is the allocation-free hot path
    /// used by the fleet-wide scoring sweeps.
    ///
    /// # Errors
    ///
    /// Same as [`DriveMonitor::ingest`].
    pub fn ingest_ref(&mut self, record: &DailyRecord) -> Result<&[f64], CoreError> {
        if let Some(page) = self.admit(record)? {
            // Full width after the first accepted record: a no-op from
            // then on.
            self.last_row.resize(ROW_WIDTH, 0.0);
            self.features.push_row(record, &page, &mut self.last_row);
        }
        Ok(&self.last_row)
    }

    /// The admission step: the page check, first-delivery-wins
    /// duplicates, late refusal and `FeatureState::repair_page`, in that
    /// order. Returns the repaired page of a new day, or `None` for a
    /// repeat of the newest day (the first delivery stands); every
    /// outcome is counted in the report. [`DriveMonitor::ingest_ref`]
    /// runs it per delivery and [`crate::sanitize::sanitize`] folds it,
    /// so training and serving admit a stream alike.
    ///
    /// # Errors
    ///
    /// As [`DriveMonitor::ingest`].
    pub(crate) fn admit(&mut self, record: &DailyRecord) -> Result<Option<[f64; 16]>, CoreError> {
        let report = &mut self.report;
        report.input_records += 1;
        let (serial, day) = (self.serial, record.day);
        let corrupt = |cause| CoreError::CorruptRecord { serial, day, cause };
        // Capacity is constant and strictly positive on a real drive, so
        // a zero capacity marks a zeroed sentinel page wherever it
        // arrives, first delivery included. A NaN fails the comparison
        // and is left to the carry-forward.
        let zeroed = record.smart.get(SmartAttr::Capacity) == 0.0;
        let violation = record.smart.as_slice().iter().find_map(|&v| {
            if zeroed || v >= SENTINEL_CEILING {
                Some(QuarantineCause::SentinelReset)
            } else {
                (v < 0.0).then_some(QuarantineCause::RangeViolation)
            }
        });
        if let Some(cause) = violation {
            match cause {
                QuarantineCause::SentinelReset => report.quarantined_sentinel += 1,
                _ => report.quarantined_range += 1,
            }
            return Err(corrupt(cause));
        }
        if let Some(last) = self.last_day {
            if day == last {
                report.duplicates_collapsed += 1;
                return Ok(None);
            }
            if day < last {
                report.quarantined_late += 1;
                return Err(CoreError::OutOfOrderRecord { serial, day, last });
            }
        }
        let mut page = [0.0f64; 16];
        page.copy_from_slice(record.smart.as_slice());
        if let Err(cause) = self.features.repair_page(&mut page, report) {
            report.quarantined_missing += 1;
            return Err(corrupt(cause));
        }
        self.last_day = Some(day);
        report.kept_records += 1;
        Ok(Some(page))
    }

    /// Ingests a drive's stored delivery stream through a reorder window
    /// of [`SanitizeConfig::reorder_depth`] records, the window
    /// [`crate::fleet_monitor::FleetMonitor`] keeps per drive, and hands
    /// each released record with its [`DriveMonitor::ingest_ref`]
    /// outcome to `on`, in release order. The window is flushed at the
    /// end of `raw`, and the records it re-sequences are counted in
    /// [`SanitizeReport::reordered`]. This is the replay
    /// [`score_fleet`] runs: on any stream its new-day rows equal
    /// `raw_rows(sanitize(raw))` and its report equals `sanitize`'s.
    pub fn ingest_stream<'a>(
        &mut self,
        raw: &'a [DailyRecord],
        mut on: impl FnMut(&'a DailyRecord, Result<&[f64], CoreError>),
    ) {
        let reordered = replay(raw, self.sanitize_cfg.reorder_depth, |record| {
            on(record, self.ingest_ref(record));
        });
        self.report.reordered += reordered;
    }

    /// Ingests one record and scores it with a trained flat-feature MFPA
    /// model, returning the failure probability.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedModel`] for a sequence model
    /// (CNN_LSTM needs windows, not single rows), propagates
    /// [`DriveMonitor::ingest`]'s telemetry errors and prediction errors.
    pub fn score(&mut self, record: &DailyRecord, trained: &TrainedMfpa) -> Result<f64, CoreError> {
        if trained.uses_sequence() {
            return Err(CoreError::UnsupportedModel(
                "DriveMonitor scores flat models; sequence models need windowed input".into(),
            ));
        }
        let full = self.ingest(record)?;
        let selected: Vec<f64> = trained
            .features()
            .iter()
            .map(|f| full[f.full_index()])
            .collect();
        let x = Matrix::from_rows(std::slice::from_ref(&selected))?;
        Ok(trained.predict_matrix(&x)?[0])
    }
}

/// One drive's outcome from [`score_fleet`]: the replayed monitor's peak
/// and final probabilities plus its online-sanitization accounting.
#[derive(Debug, Clone)]
pub struct DriveScore {
    /// The drive's serial.
    pub serial: SerialNumber,
    /// Highest probability any accepted record scored.
    pub max_score: f64,
    /// Probability of the last accepted record (0 if none were accepted).
    pub last_score: f64,
    /// Records that were accepted and scored.
    pub n_scored: usize,
    /// The monitor's sanitization accounting (quarantines, repairs).
    pub report: SanitizeReport,
}

/// Replays every drive's raw emission stream through its own
/// [`DriveMonitor`], behind the default reorder window
/// ([`DriveMonitor::ingest_stream`]), and scores each accepted record
/// against `trained` — the server-side "iterate the model, re-score the
/// fleet" batch job. The monitors admit with the default
/// [`SanitizeConfig`] (reorder depth and sentinel ceiling), whatever
/// [`crate::MfpaConfig::sanitize`] the model was trained with.
///
/// Tree ensembles (compiled at training time) score each drive's
/// accepted rows with an incremental [`mfpa_ml::SequentialScorer`]; other
/// flat families score them in one [`TrainedMfpa::predict_matrix`] call.
/// Both give the probabilities of the model's own `predict_proba`, bit
/// for bit; a tree ensemble's is the compiled engine's dense kernel.
/// Offline evaluation ([`TrainedMfpa::predict_rows`]) runs the same
/// per-drive loop over the prepared frame.
///
/// Drives are scored on the deterministic parallel layer ([`mfpa_par`]):
/// each worker replays whole drives, results come back in input order,
/// and the scores are bit-identical at any worker count (`n_threads`,
/// `0` = automatic). Records the monitor quarantines (corrupt or late
/// deliveries) are skipped and show up in the per-drive
/// [`SanitizeReport`], exactly as they would on the client and as
/// [`crate::sanitize::sanitize`] counts them for training.
///
/// # Errors
///
/// Returns [`CoreError::UnsupportedModel`] for a sequence model and
/// propagates prediction errors and any ingest error but the refusals
/// ([`CoreError::CorruptRecord`], [`CoreError::OutOfOrderRecord`]).
pub fn score_fleet(
    drives: &[SimulatedDrive],
    trained: &TrainedMfpa,
    n_threads: usize,
) -> Result<Vec<DriveScore>, CoreError> {
    if trained.uses_sequence() {
        return Err(CoreError::UnsupportedModel(
            "score_fleet scores flat models; sequence models need windowed input".into(),
        ));
    }
    let cols: Vec<usize> = trained
        .features()
        .iter()
        .map(FeatureId::full_index)
        .collect();
    score_streams(
        trained,
        drives,
        &cols,
        Workers::from_config(n_threads),
        |drive, rows| {
            let mut monitor = DriveMonitor::new(drive.serial(), drive.firmware().clone());
            let mut failure = None;
            monitor.ingest_stream(drive.raw_records(), |_, outcome| match outcome {
                Ok(full) => rows.gather(full),
                Err(CoreError::CorruptRecord { .. } | CoreError::OutOfOrderRecord { .. }) => {}
                Err(other) => failure = failure.take().or(Some(other)),
            });
            failure.map_or(Ok(*monitor.sanitize_report()), Err)
        },
        |drive, report, probs, out| {
            let mut max_score = 0.0f64;
            let mut last_score = 0.0f64;
            for &p in probs {
                max_score = max_score.max(p);
                last_score = p;
            }
            out.push(DriveScore {
                serial: drive.serial(),
                max_score,
                last_score,
                n_scored: probs.len(),
                report,
            });
        },
    )
}

/// One stream's rows in the model's selected columns, gathered from
/// full-width rows.
pub(crate) struct StreamRows<'c> {
    cols: &'c [usize],
    /// `cols` is `0..cols.len()`: every full-width group selects its
    /// columns in order, and the gather degenerates to a memcpy.
    prefix: bool,
    rows: Vec<f64>,
}

impl StreamRows<'_> {
    /// Appends the selected cells of one full-width row.
    pub(crate) fn gather(&mut self, full: &[f64]) {
        if self.prefix {
            self.rows.extend_from_slice(&full[..self.cols.len()]);
        } else {
            self.rows.extend(self.cols.iter().map(|&c| full[c]));
        }
    }
}

/// The one per-device scoring loop behind [`score_fleet`] and
/// [`TrainedMfpa::predict_rows`].
///
/// For each stream, `fill` gathers the stream's chronological
/// full-width rows to `cols` and returns per-stream state; the rows are
/// scored, and `emit` turns the state and the probabilities into output
/// items. Streams are chunked across `workers`, each chunk amortizing
/// one scorer and one pair of buffers over many streams; per-stream
/// scoring is self-contained — [`mfpa_ml::SequentialScorer::reset`]
/// drops every bit of cross-stream state — so neither the chunk layout
/// nor the worker count can leak into the output, which comes back in
/// stream order.
pub(crate) fn score_streams<T, S, R>(
    trained: &TrainedMfpa,
    streams: &[T],
    cols: &[usize],
    workers: Workers,
    fill: impl Fn(&T, &mut StreamRows<'_>) -> Result<S, CoreError> + Sync,
    emit: impl Fn(&T, S, &[f64], &mut Vec<R>) + Sync,
) -> Result<Vec<R>, CoreError>
where
    T: Sync,
    R: Send,
{
    let prefix = cols.iter().enumerate().all(|(k, &c)| k == c);
    let ranges = mfpa_par::chunk_ranges(streams.len(), workers.get() * 4);
    let per_chunk = ordered_map(&ranges, workers, |_, range| -> Result<Vec<R>, CoreError> {
        // Tree ensembles stream each device through an incremental
        // compiled scorer; families with no compiled form score a
        // device's rows in one batch.
        let mut scorer = trained
            .compiled()
            .map(|compiled| compiled.sequential(&vec![false; cols.len()]))
            .transpose()?;
        let mut rows = StreamRows {
            cols,
            prefix,
            rows: Vec::with_capacity(cols.len() * 256),
        };
        let mut probs: Vec<f64> = Vec::with_capacity(256);
        let mut out = Vec::with_capacity(range.len());
        for stream in &streams[range.clone()] {
            rows.rows.clear();
            let state = fill(stream, &mut rows)?;
            probs.clear();
            match scorer.as_mut() {
                Some(scorer) => {
                    scorer.reset();
                    scorer.score_rows(&rows.rows, &mut probs)?;
                }
                None if !rows.rows.is_empty() => {
                    let x = Matrix::from_flat(std::mem::take(&mut rows.rows), cols.len())?;
                    probs = trained.predict_matrix(&x)?;
                }
                None => {}
            }
            emit(stream, state, &probs, &mut out);
        }
        Ok(out)
    });
    let mut out = Vec::with_capacity(streams.len());
    for chunk in per_chunk {
        out.extend(chunk?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_telemetry::{SmartValues, Vendor, WindowsEventId};

    fn record(day: i64, w161: u32) -> DailyRecord {
        let mut w = [0u32; 9];
        w[WindowsEventId::W161.index()] = w161;
        let mut smart = SmartValues::default();
        smart.set(SmartAttr::Capacity, 512.0);
        DailyRecord {
            day: DayStamp::new(day),
            smart,
            firmware: FirmwareVersion::new(Vendor::I, 1),
            w_counts: w,
            b_counts: [0; 23],
        }
    }

    fn monitor() -> DriveMonitor {
        DriveMonitor::new(
            SerialNumber::new(Vendor::I, 1),
            FirmwareVersion::new(Vendor::I, 1),
        )
    }

    #[test]
    fn accumulates_event_counters() {
        let mut m = monitor();
        let w161_col = FeatureId::WinEventCum(WindowsEventId::W161).full_index();
        let r1 = m.ingest(&record(0, 2)).unwrap();
        let r2 = m.ingest(&record(3, 1)).unwrap();
        assert_eq!(r1[w161_col], 2.0);
        assert_eq!(r2[w161_col], 3.0);
        assert_eq!(m.last_day(), Some(DayStamp::new(3)));
    }

    #[test]
    fn rejects_out_of_order_records_with_structure() {
        let mut m = monitor();
        m.ingest(&record(5, 0)).unwrap();
        match m.ingest(&record(4, 0)) {
            Err(CoreError::OutOfOrderRecord { serial, day, last }) => {
                assert_eq!(serial, m.serial());
                assert_eq!(day, DayStamp::new(4));
                assert_eq!(last, DayStamp::new(5));
            }
            other => panic!("expected OutOfOrderRecord, got {other:?}"),
        }
        assert_eq!(m.sanitize_report().quarantined_late, 1);
    }

    #[test]
    fn duplicate_day_is_idempotent() {
        let mut m = monitor();
        let first = m.ingest(&record(5, 2)).unwrap();
        // A retransmission of the same day must not double the
        // cumulative counters — the original row is replayed.
        let replay = m.ingest(&record(5, 2)).unwrap();
        assert_eq!(first, replay);
        assert_eq!(m.sanitize_report().duplicates_collapsed, 1);
        let w161_col = FeatureId::WinEventCum(WindowsEventId::W161).full_index();
        let next = m.ingest(&record(6, 1)).unwrap();
        assert_eq!(next[w161_col], 3.0, "duplicate must not have accumulated");
    }

    #[test]
    fn quarantines_sentinel_pages_and_imputes_nans() {
        use mfpa_telemetry::SmartAttr;
        let mut m = monitor();
        // Leading NaN with no history: quarantined.
        let mut r0 = record(0, 0);
        r0.smart.set(SmartAttr::MediaErrors, f64::NAN);
        assert!(matches!(
            m.ingest(&r0),
            Err(CoreError::CorruptRecord {
                cause: crate::sanitize::QuarantineCause::MissingValues,
                ..
            })
        ));
        let mut r1 = record(1, 0);
        r1.smart.set(SmartAttr::CompositeTemperature, 40.0);
        m.ingest(&r1).unwrap();
        // Sentinel page: quarantined, state untouched.
        let mut r2 = record(2, 0);
        for attr in SmartAttr::ALL {
            r2.smart.set(attr, u64::MAX as f64);
        }
        assert!(matches!(
            m.ingest(&r2),
            Err(CoreError::CorruptRecord { .. })
        ));
        assert_eq!(m.last_day(), Some(DayStamp::new(1)));
        // NaN with history: carried forward from the last accepted page.
        let mut r3 = record(3, 0);
        r3.smart.set(SmartAttr::CompositeTemperature, f64::NAN);
        let row = m.ingest(&r3).unwrap();
        assert_eq!(row[SmartAttr::CompositeTemperature.index()], 40.0);
        let rep = m.sanitize_report();
        assert_eq!(rep.quarantined_sentinel, 1);
        assert_eq!(rep.quarantined_missing, 1);
        assert_eq!(rep.values_imputed, 1);
        assert_eq!(rep.kept_records, 2);
    }

    #[test]
    fn repairs_counter_rollovers_online() {
        use mfpa_telemetry::SmartAttr;
        let mut m = monitor();
        let poh_col = SmartAttr::PowerOnHours.index();
        let mut r0 = record(0, 0);
        r0.smart.set(SmartAttr::PowerOnHours, 500.0);
        assert_eq!(m.ingest(&r0).unwrap()[poh_col], 500.0);
        // Counter wraps: the raw reading restarts near zero.
        let mut r1 = record(1, 0);
        r1.smart.set(SmartAttr::PowerOnHours, 10.0);
        assert_eq!(m.ingest(&r1).unwrap()[poh_col], 500.0);
        let mut r2 = record(2, 0);
        r2.smart.set(SmartAttr::PowerOnHours, 34.0);
        // Keeps accumulating on the spliced base.
        assert_eq!(m.ingest(&r2).unwrap()[poh_col], 524.0);
        assert_eq!(m.sanitize_report().rollovers_repaired, 1);
    }

    #[test]
    fn nan_after_rollover_carries_the_raw_value_like_sanitize() {
        use crate::preprocess::raw_rows;
        use crate::sanitize::sanitize;
        use mfpa_telemetry::{DriveModel, SmartAttr};
        // A wrap (500 -> 10), then a hole: the hole carries the raw 10
        // forward and takes the current offset once, not twice.
        let stream: Vec<DailyRecord> = [500.0, 10.0, f64::NAN, 34.0]
            .into_iter()
            .zip(0..)
            .map(|(poh, day)| {
                let mut r = record(day, 0);
                r.smart.set(SmartAttr::PowerOnHours, poh);
                r
            })
            .collect();
        let poh_col = SmartAttr::PowerOnHours.index();
        let mut m = monitor();
        let online: Vec<f64> = stream
            .iter()
            .map(|r| m.ingest(r).unwrap()[poh_col])
            .collect();
        assert_eq!(online, vec![500.0, 500.0, 500.0, 524.0]);
        assert_eq!(m.sanitize_report().rollovers_repaired, 1);

        let (history, report) = sanitize(
            m.serial(),
            DriveModel::ALL[0],
            &stream,
            &SanitizeConfig::default(),
        );
        let (_, rows) = raw_rows(&history, &FirmwareVersion::new(Vendor::I, 1), true);
        let offline: Vec<f64> = rows.chunks_exact(ROW_WIDTH).map(|r| r[poh_col]).collect();
        assert_eq!(online, offline);
        assert_eq!(report.rollovers_repaired, 1);
    }

    #[test]
    fn tracks_firmware_updates() {
        let mut m = monitor();
        let mut rec = record(0, 0);
        rec.firmware = FirmwareVersion::new(Vendor::I, 3);
        let row = m.ingest(&rec).unwrap();
        assert_eq!(row[FeatureId::Firmware.full_index()], 3.0);
    }

    #[test]
    fn scores_against_a_trained_pipeline() {
        use crate::{Algorithm, FeatureGroup, Mfpa, MfpaConfig};
        use mfpa_fleetsim::{FleetConfig, SimulatedFleet};

        let fleet =
            SimulatedFleet::generate(&FleetConfig::tiny(21).with_population_fraction(0.001));
        let mfpa = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest));
        let prepared = mfpa.prepare(&fleet).expect("prepare");
        let all: Vec<usize> = (0..prepared.n_rows()).collect();
        let trained = mfpa.train_rows(&prepared, &all).expect("train");

        // Replay a healthy drive through the monitor: scores stay low.
        let healthy = fleet
            .drives()
            .iter()
            .find(|d| d.truth().is_none())
            .expect("healthy");
        let mut m = DriveMonitor::new(healthy.serial(), healthy.firmware().clone());
        let mut max_p: f64 = 0.0;
        for rec in healthy.history().records() {
            max_p = max_p.max(m.score(rec, &trained).expect("score"));
        }
        assert!(max_p < 0.9, "healthy drive peaked at {max_p}");

        // Replay a loud faulty drive: the final score should be higher
        // than the healthy drive's peak.
        let faulty = fleet
            .drives()
            .iter()
            .filter(|d| d.truth().is_some())
            .max_by_key(|d| {
                d.history()
                    .records()
                    .iter()
                    .map(|r| r.event_total())
                    .sum::<u32>()
            })
            .expect("faulty");
        let mut m = DriveMonitor::new(faulty.serial(), faulty.firmware().clone());
        let mut last_p = 0.0;
        for rec in faulty.history().records() {
            last_p = m.score(rec, &trained).expect("score");
        }
        assert!(
            last_p > max_p,
            "faulty final {last_p} vs healthy peak {max_p}"
        );

        // Batch scoring replays the same monitors: the healthy drive's
        // entry must agree with the hand-rolled replay above, and the
        // whole score table must be bit-identical at any worker count.
        let reference = score_fleet(fleet.drives(), &trained, 1).expect("score_fleet");
        assert_eq!(reference.len(), fleet.drives().len());
        let healthy_ix = fleet
            .drives()
            .iter()
            .position(|d| d.serial() == healthy.serial())
            .unwrap();
        assert_eq!(reference[healthy_ix].max_score.to_bits(), max_p.to_bits());
        let faulty_ix = fleet
            .drives()
            .iter()
            .position(|d| d.serial() == faulty.serial())
            .unwrap();
        assert_eq!(reference[faulty_ix].last_score.to_bits(), last_p.to_bits());
        for n in [2, 7] {
            let scores = score_fleet(fleet.drives(), &trained, n).expect("score_fleet");
            for (a, b) in scores.iter().zip(&reference) {
                assert_eq!(a.serial, b.serial, "n_threads = {n}");
                assert_eq!(a.max_score.to_bits(), b.max_score.to_bits());
                assert_eq!(a.last_score.to_bits(), b.last_score.to_bits());
                assert_eq!(a.n_scored, b.n_scored);
                assert_eq!(a.report, b.report);
            }
        }
    }
}
