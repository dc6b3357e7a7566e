//! The end-to-end MFPA pipeline: preprocess → label → sample → split →
//! balance → train → evaluate.

use std::collections::BTreeMap;
use std::time::Instant;

use mfpa_dataset::{split, Matrix, RandomUnderSampler};
use mfpa_fleetsim::SimulatedFleet;
use mfpa_ml::metrics::{auc, ConfusionMatrix};
use mfpa_ml::Classifier;
use mfpa_par::{ordered_map, Workers};
use mfpa_telemetry::{SerialNumber, Vendor};

use crate::algorithms::Algorithm;
use crate::error::CoreError;
use crate::features::{FeatureGroup, FeatureId};
use crate::labeling::{label_drive, tickets_by_serial, LabelingConfig};
use crate::preprocess::{preprocess, CleanSeries, PreprocessConfig};
use crate::report::{EvalReport, MetricSet, StageTimings};
use crate::sanitize::{sanitize, SanitizeConfig, SanitizeReport};
use crate::windows::{SampleBuilder, SampleSet, WindowConfig};

/// Drives each worker sanitizes and preprocesses per group in
/// [`Mfpa::prepare`]: the group's clean series are the only ones alive
/// at once, so this bounds preparation memory independently of fleet
/// size while keeping each parallel call long enough to amortise its
/// thread spawns.
pub const DRIVES_PER_WORKER: usize = 16;

/// Train/test segmentation strategy (Fig 8(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitStrategy {
    /// Naive random split with the given test fraction.
    Ratio {
        /// Fraction of rows assigned to the test set.
        test_fraction: f64,
    },
    /// The paper's timepoint-based segmentation: the earliest
    /// `train_fraction` of rows (by time) trains, the rest tests.
    TimePoint {
        /// Fraction of rows (time-quantile) in the learning window.
        train_fraction: f64,
    },
}

/// Cross-validation strategy (Fig 8(b)) — consumed by the tuning
/// helpers and the Fig 8 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CvStrategy {
    /// Classic shuffled k-fold.
    KFold(usize),
    /// The paper's chronological 2k-subset scheme.
    TimeSeries(usize),
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct MfpaConfig {
    /// Feature group fed to the model (Table V).
    pub feature_group: FeatureGroup,
    /// Explicit column override (feature selection / baselines); takes
    /// precedence over `feature_group` when set.
    pub custom_columns: Option<Vec<FeatureId>>,
    /// Model family.
    pub algorithm: Algorithm,
    /// Telemetry sanitization ahead of preprocessing: `Some` runs the
    /// [`crate::sanitize`] stage over each drive's raw emission stream
    /// (the default — it is the identity on clean telemetry); `None`
    /// trusts the collector's view unchecked (the robustness baseline).
    pub sanitize: Option<SanitizeConfig>,
    /// Gap-handling constants (§III-C(1)).
    pub preprocess: PreprocessConfig,
    /// θ-labelling constants (§III-C(2)).
    pub labeling: LabelingConfig,
    /// Positive-window / lookahead / sequence-length constants.
    pub window: WindowConfig,
    /// Negative:positive under-sampling ratio for training
    /// (`None` trains on the raw imbalance).
    pub undersample_ratio: Option<f64>,
    /// Train/test segmentation.
    pub split: SplitStrategy,
    /// Decision threshold on predicted probability.
    pub threshold: f64,
    /// Restrict the pipeline to one vendor (per-vendor models, Fig 11).
    pub vendor: Option<Vendor>,
    /// Seed for sampling and model training.
    pub seed: u64,
    /// Worker threads for the per-drive sanitize + preprocess stages and
    /// for per-drive evaluation scoring (`0` = automatic: `MFPA_THREADS`
    /// or the machine's parallelism). Purely a throughput knob — every
    /// report is bit-identical at any value.
    pub n_threads: usize,
    /// Per-feature bin budget for the tree ensembles' histogram split
    /// search: at least 2 (fitting refuses smaller values), at most 256
    /// (larger values are clamped).
    pub max_bins: usize,
}

impl MfpaConfig {
    /// Creates the default configuration for a feature group and
    /// algorithm: θ = 7, 14-day positive window, 3:1 under-sampling,
    /// timepoint split at 70%.
    pub fn new(feature_group: FeatureGroup, algorithm: Algorithm) -> Self {
        MfpaConfig {
            feature_group,
            custom_columns: None,
            algorithm,
            sanitize: Some(SanitizeConfig::default()),
            preprocess: PreprocessConfig::default(),
            labeling: LabelingConfig::default(),
            window: WindowConfig::default(),
            undersample_ratio: Some(3.0),
            split: SplitStrategy::TimePoint {
                train_fraction: 0.7,
            },
            threshold: 0.5,
            vendor: None,
            seed: 17,
            n_threads: 0,
            max_bins: 256,
        }
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Restricts to one vendor.
    pub fn with_vendor(mut self, vendor: Vendor) -> Self {
        self.vendor = Some(vendor);
        self
    }

    /// Sets or disables the sanitization stage.
    pub fn with_sanitize(mut self, sanitize: Option<SanitizeConfig>) -> Self {
        self.sanitize = sanitize;
        self
    }

    /// Sets the worker-thread count (`0` = automatic).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.n_threads = n;
        self
    }

    /// Sets the tree ensembles' histogram bin budget (2 to 256).
    pub fn with_max_bins(mut self, n: usize) -> Self {
        self.max_bins = n;
        self
    }

    /// Sets the θ threshold.
    pub fn with_theta(mut self, theta: i64) -> Self {
        self.labeling.theta = theta.max(0);
        self
    }

    /// Sets the positive-window length (days).
    pub fn with_positive_window(mut self, days: i64) -> Self {
        self.window.positive_window = days.max(1);
        self
    }

    /// Sets the lookahead N (days).
    pub fn with_lookahead(mut self, days: i64) -> Self {
        self.window.lookahead = days.max(0);
        self
    }

    /// Sets or disables the under-sampling ratio.
    pub fn with_undersample_ratio(mut self, ratio: Option<f64>) -> Self {
        self.undersample_ratio = ratio;
        self
    }

    /// Sets the split strategy.
    pub fn with_split(mut self, split: SplitStrategy) -> Self {
        self.split = split;
        self
    }

    /// Sets the decision threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold.clamp(0.0, 1.0);
        self
    }

    /// Overrides the model's columns explicitly.
    pub fn with_custom_columns(mut self, columns: Vec<FeatureId>) -> Self {
        self.custom_columns = Some(columns);
        self
    }

    /// The columns the model will see.
    pub fn selected_features(&self) -> Vec<FeatureId> {
        self.custom_columns
            .clone()
            .unwrap_or_else(|| self.feature_group.features())
    }

    /// A human-readable label for reports.
    pub fn label(&self) -> String {
        let vendor = self
            .vendor
            .map(|v| format!(" vendor={v}"))
            .unwrap_or_default();
        let cols = if self.custom_columns.is_some() {
            "custom"
        } else {
            self.feature_group.name()
        };
        format!("{}+{}{}", cols, self.algorithm.name(), vendor)
    }
}

/// Preprocessed, labelled, sampled data — reusable across models and
/// evaluation windows.
#[derive(Debug)]
pub struct Prepared {
    samples: SampleSet,
    failure_days: BTreeMap<SerialNumber, i64>,
    sanitize_report: SanitizeReport,
    n_raw_records: usize,
    n_series: usize,
    sanitize_secs: f64,
    preprocess_secs: f64,
    labeling_secs: f64,
    sampling_secs: f64,
}

impl Prepared {
    /// The assembled sample set (flat + sequence views, full columns).
    pub fn samples(&self) -> &SampleSet {
        &self.samples
    }

    /// θ-identified failure day per ticketed drive.
    pub fn failure_days(&self) -> &BTreeMap<SerialNumber, i64> {
        &self.failure_days
    }

    /// Number of sample rows.
    pub fn n_rows(&self) -> usize {
        self.samples.flat.n_rows()
    }

    /// Number of drive series that survived preprocessing.
    pub fn n_series(&self) -> usize {
        self.n_series
    }

    /// Number of raw telemetry records consumed.
    pub fn n_raw_records(&self) -> usize {
        self.n_raw_records
    }

    /// Fleet-wide sanitization accounting (all zeros when the stage is
    /// disabled or the telemetry is clean).
    pub fn sanitize_report(&self) -> &SanitizeReport {
        &self.sanitize_report
    }

    /// Seconds spent in the sanitization stage.
    pub fn sanitize_secs(&self) -> f64 {
        self.sanitize_secs
    }

    /// The cells of the given rows in the given columns, copied once:
    /// from the sequence view for sequence models, otherwise decoded
    /// from the flat view.
    fn gather(&self, rows: &[usize], cols: &[usize], uses_seq: bool) -> Result<Matrix, CoreError> {
        if !uses_seq {
            return Ok(self.samples.flat.gather(rows, cols));
        }
        let x = self.samples.seq.matrix();
        let mut cells = Vec::with_capacity(rows.len() * cols.len());
        for &r in rows {
            let row = x.row(r);
            cells.extend(cols.iter().map(|&c| row[c]));
        }
        Ok(Matrix::from_flat(cells, cols.len())?)
    }

    /// Row indices whose collection time lies in `[from, to)`.
    pub fn rows_in_window(&self, from: i64, to: i64) -> Vec<usize> {
        self.samples
            .flat
            .meta()
            .iter()
            .enumerate()
            .filter(|(_, m)| m.time >= from && m.time < to)
            .map(|(ix, _)| ix)
            .collect()
    }
}

/// The MFPA pipeline for one configuration.
#[derive(Debug, Clone)]
pub struct Mfpa {
    config: MfpaConfig,
}

impl Mfpa {
    /// Creates a pipeline.
    pub fn new(config: MfpaConfig) -> Self {
        Mfpa { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &MfpaConfig {
        &self.config
    }

    /// Stage 1–3: sanitize, preprocess, θ-label, assemble samples.
    ///
    /// The fleet streams through one drive at a time: a drive's raw
    /// stream is sanitized and preprocessed into a [`CleanSeries`], which
    /// is θ-labelled, appended to the sample frame by a
    /// [`SampleBuilder`] and dropped before later drives are built, so
    /// at most one group's series are alive at once, never the fleet's.
    /// Sanitize + preprocess run on the deterministic parallel layer
    /// over groups of [`DRIVES_PER_WORKER`] drives per worker; labelling
    /// and windowing run serially in drive order. The output is the
    /// stage-by-stage composition — [`crate::sanitize::sanitize`],
    /// [`crate::preprocess::preprocess`],
    /// [`crate::labeling::label_failures`] and
    /// [`crate::windows::build_samples_for`] over the whole fleet — bit
    /// for bit, at any worker count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoUsableDrives`] if preprocessing leaves
    /// nothing.
    pub fn prepare(&self, fleet: &SimulatedFleet) -> Result<Prepared, CoreError> {
        let selected: Vec<_> = fleet
            .drives()
            .iter()
            .filter(|d| self.config.vendor.is_none_or(|v| d.vendor() == v))
            .collect();
        // Results come back in drive order and are merged serially, so
        // every counter, label and sample row is bit-identical at any
        // worker count. Every stage's seconds are summed per-drive
        // *work* (across workers for sanitize + preprocess), not
        // wall-clock.
        struct DriveOut {
            series: Option<CleanSeries>,
            n_raw: usize,
            report: Option<SanitizeReport>,
            sanitize_secs: f64,
            preprocess_secs: f64,
        }
        let workers = Workers::from_config(self.config.n_threads);
        let tickets = tickets_by_serial(fleet.tickets());
        let mut samples =
            SampleBuilder::new(&self.config.window, self.config.algorithm.needs_sequence())?;
        let mut failure_days = BTreeMap::new();
        let mut n_series = 0usize;
        let mut n_raw_records = 0usize;
        let mut sanitize_report = SanitizeReport::default();
        let mut sanitize_secs = 0.0f64;
        let mut preprocess_secs = 0.0f64;
        let mut labeling_secs = 0.0f64;
        let mut sampling_secs = 0.0f64;
        for group in selected.chunks(DRIVES_PER_WORKER * workers.get()) {
            let outputs = ordered_map(group, workers, |_, drive| {
                let mut out = DriveOut {
                    series: None,
                    n_raw: 0,
                    report: None,
                    sanitize_secs: 0.0,
                    preprocess_secs: 0.0,
                };
                let sanitized;
                let history = match &self.config.sanitize {
                    Some(cfg) => {
                        out.n_raw = drive.raw_records().len();
                        let ts = Instant::now();
                        let (h, report) = sanitize(
                            drive.serial(),
                            drive.history().model(),
                            drive.raw_records(),
                            cfg,
                        );
                        out.sanitize_secs = ts.elapsed().as_secs_f64();
                        out.report = Some(report);
                        sanitized = h;
                        &sanitized
                    }
                    None => {
                        out.n_raw = drive.history().len();
                        drive.history()
                    }
                };
                let tp = Instant::now();
                out.series = preprocess(history, drive.firmware(), &self.config.preprocess);
                out.preprocess_secs = tp.elapsed().as_secs_f64();
                out
            });
            for out in outputs {
                n_raw_records += out.n_raw;
                if let Some(report) = &out.report {
                    sanitize_report.merge(report);
                }
                sanitize_secs += out.sanitize_secs;
                preprocess_secs += out.preprocess_secs;
                let Some(series) = out.series else {
                    continue;
                };
                n_series += 1;

                let t1 = Instant::now();
                let own = tickets.get(&series.serial).into_iter().flatten().copied();
                let failure_day = label_drive(&series, own, &self.config.labeling);
                if let Some(day) = failure_day {
                    failure_days.insert(series.serial, day);
                }
                labeling_secs += t1.elapsed().as_secs_f64();

                let t2 = Instant::now();
                samples.push_drive(&series, failure_day)?;
                sampling_secs += t2.elapsed().as_secs_f64();
            }
        }
        if n_series == 0 {
            return Err(CoreError::NoUsableDrives);
        }

        Ok(Prepared {
            samples: samples.finish(),
            failure_days,
            sanitize_report,
            n_raw_records,
            n_series,
            sanitize_secs,
            preprocess_secs,
            labeling_secs,
            sampling_secs,
        })
    }

    /// Trains on the given rows (under-sampling applied internally).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DegenerateTrainingSet`] when the rows contain
    /// a single class.
    pub fn train_rows(
        &self,
        prepared: &Prepared,
        rows: &[usize],
    ) -> Result<TrainedMfpa, CoreError> {
        let features = self.config.selected_features();
        let uses_seq = self.config.algorithm.needs_sequence();
        // The sequence view carries the flat view's labels row for row.
        let all_labels = prepared.samples.flat.labels();
        let labels: Vec<bool> = rows.iter().map(|&i| all_labels[i]).collect();
        let n_pos = labels.iter().filter(|&&l| l).count();
        if rows.is_empty() || n_pos == 0 {
            return Err(CoreError::DegenerateTrainingSet(
                "no positive samples in the training window".into(),
            ));
        }
        if n_pos == labels.len() {
            return Err(CoreError::DegenerateTrainingSet(
                "no negative samples in the training window".into(),
            ));
        }

        let kept: Vec<usize> = match self.config.undersample_ratio {
            Some(ratio) => {
                let sampler =
                    RandomUnderSampler::new(ratio, self.config.seed).map_err(CoreError::from)?;
                sampler
                    .sample(&labels)
                    .into_iter()
                    .map(|i| rows[i])
                    .collect()
            }
            None => rows.to_vec(),
        };

        let cols = col_indices(&features, uses_seq, self.config.window.seq_len);
        let x = prepared.gather(&kept, &cols, uses_seq)?;
        let y: Vec<bool> = kept.iter().map(|&i| all_labels[i]).collect();

        let mut model = self.config.algorithm.build(
            self.config.seed,
            self.config.window.seq_len,
            &features,
            self.config.max_bins,
        );
        let t0 = Instant::now();
        model.fit(&x, &y).map_err(|e| match e {
            mfpa_ml::MlError::SingleClass => {
                CoreError::DegenerateTrainingSet("under-sampling left a single class".into())
            }
            other => CoreError::from(other),
        })?;
        let train_secs = t0.elapsed().as_secs_f64();

        Ok(TrainedMfpa {
            model,
            installed: None,
            features,
            uses_seq,
            seq_len: self.config.window.seq_len,
            threshold: self.config.threshold,
            train_secs,
            n_train_rows: kept.len(),
            n_threads: self.config.n_threads,
        })
    }

    /// Runs the whole pipeline: prepare, split, train, evaluate.
    ///
    /// # Errors
    ///
    /// Propagates preparation and training errors.
    pub fn run(&self, fleet: &SimulatedFleet) -> Result<EvalReport, CoreError> {
        let prepared = self.prepare(fleet)?;
        let times = prepared.samples.flat.times();
        let the_split = match self.config.split {
            SplitStrategy::Ratio { test_fraction } => {
                split::ratio_split(times.len(), test_fraction, self.config.seed)?
            }
            SplitStrategy::TimePoint { train_fraction } => {
                split::timepoint_split_fraction(&times, train_fraction)?
            }
        };
        let trained = self.train_rows(&prepared, &the_split.train)?;
        let mut report = trained.evaluate_rows(&prepared, &the_split.test, &self.config.label())?;
        report.timings.n_threads = Workers::from_config(self.config.n_threads).get();
        report.timings.n_raw_records = prepared.n_raw_records;
        report.timings.sanitize_secs = prepared.sanitize_secs;
        report.timings.n_quarantined = prepared.sanitize_report.total_quarantined();
        report.timings.n_repaired = prepared.sanitize_report.total_repaired();
        report.timings.preprocess_secs = prepared.preprocess_secs;
        report.timings.labeling_secs = prepared.labeling_secs;
        report.timings.sampling_secs = prepared.sampling_secs;
        report.timings.frame_bytes =
            prepared.samples.flat.heap_bytes() + prepared.samples.seq.heap_bytes();
        Ok(report)
    }
}

/// A trained model plus everything needed to score new rows.
pub struct TrainedMfpa {
    model: Box<dyn Classifier>,
    /// A compiled engine installed from `.mfpac` artifact bytes. It
    /// takes the place of the engine `model` fitted into (see
    /// [`TrainedMfpa::compiled`]).
    installed: Option<mfpa_ml::CompiledEnsemble>,
    features: Vec<FeatureId>,
    uses_seq: bool,
    seq_len: usize,
    threshold: f64,
    train_secs: f64,
    n_train_rows: usize,
    /// Scoring workers for [`TrainedMfpa::predict_rows`], as configured
    /// ([`MfpaConfig::n_threads`], `0` = automatic).
    n_threads: usize,
}

impl std::fmt::Debug for TrainedMfpa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedMfpa")
            .field("model", &self.model.name())
            .field("compiled", &self.compiled().is_some())
            .field("n_features", &self.features.len())
            .field("uses_seq", &self.uses_seq)
            .field("threshold", &self.threshold)
            .finish()
    }
}

impl TrainedMfpa {
    /// The underlying model's name.
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    /// The feature columns the model consumes, in canonical order.
    pub fn features(&self) -> &[FeatureId] {
        &self.features
    }

    /// Whether the model consumes sequence windows instead of flat rows.
    pub fn uses_sequence(&self) -> bool {
        self.uses_seq
    }

    /// Whether a compiled scoring engine ([`mfpa_ml::CompiledEnsemble`])
    /// is present. [`Mfpa::train_rows`] already compiles every tree
    /// ensemble, so this builds nothing; it is idempotent and `true` for
    /// random forests and GBDT.
    pub fn compile(&mut self) -> bool {
        self.compiled().is_some()
    }

    /// The compiled scoring engine: the installed `.mfpac` artifact if
    /// there is one, else the engine a tree ensemble fitted into; `None`
    /// for families with no compiled form. When present, batch and
    /// per-drive scoring route through it.
    pub fn compiled(&self) -> Option<&mfpa_ml::CompiledEnsemble> {
        self.installed.as_ref().or_else(|| self.model.compiled())
    }

    /// Serializes the compiled engine to its `.mfpac` artifact bytes,
    /// if one is present. Pair with
    /// [`TrainedMfpa::install_compiled_artifact`] on the monitor side.
    pub fn compiled_artifact(&self) -> Option<Vec<u8>> {
        self.compiled().map(mfpa_ml::CompiledEnsemble::to_bytes)
    }

    /// Installs a compiled engine decoded from `.mfpac` artifact bytes:
    /// the monitor-process path that picks up a pushed model without
    /// refitting. Every scoring sweep after this reuses the engine.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedModel`] for a sequence model, whose
    /// columns are windows of the selected features, not the features;
    /// [`CoreError::Model`] when the artifact is corrupt or truncated,
    /// or disagrees with this model's feature width.
    pub fn install_compiled_artifact(&mut self, bytes: &[u8]) -> Result<(), CoreError> {
        if self.uses_seq {
            return Err(CoreError::UnsupportedModel(
                "compiled artifacts score flat models; sequence models read windowed input".into(),
            ));
        }
        let engine = mfpa_ml::CompiledEnsemble::from_bytes(bytes).map_err(CoreError::from)?;
        if engine.n_features() != self.features.len() {
            return Err(CoreError::Model(format!(
                "compiled artifact expects {} features, model selects {}",
                engine.n_features(),
                self.features.len()
            )));
        }
        self.installed = Some(engine);
        Ok(())
    }

    /// Seconds spent fitting.
    pub fn train_secs(&self) -> f64 {
        self.train_secs
    }

    /// Training rows after under-sampling.
    pub fn n_train_rows(&self) -> usize {
        self.n_train_rows
    }

    /// Scores the given rows (probability of failure), in request order.
    ///
    /// A compiled model scores one drive at a time. The requested
    /// indices are sorted (a stable sort, skipped when they already are);
    /// the flat frame holds each drive's rows contiguously in day order,
    /// so the sorted indices cut into chronological per-drive runs. Each
    /// run is decoded by one [`mfpa_dataset::RowCursor`] rolling forward
    /// through the drive's changes; its selected columns are gathered
    /// into one reused buffer and
    /// streamed through a [`mfpa_ml::SequentialScorer`], on the loop
    /// [`crate::deploy::score_fleet`] runs, and the probabilities are
    /// scattered back to request order. The scorer matches the dense
    /// [`TrainedMfpa::predict_matrix`] kernel bit for bit row by row,
    /// so any request order (a shuffled ratio split, repeated indices)
    /// gives the dense probabilities; order only changes the cost. The
    /// worst case is one row per drive, where every row walks every
    /// tree from scratch: the latest-row-per-drive request of
    /// `examples/fleet_health_monitor.rs`, made on the 2,798 test drives
    /// of the benchmark's `train` fleet, takes 71 ms here against 21 ms
    /// for the dense kernel (default random forest, one worker on a
    /// shared 2-vCPU x86-64 host). Families with no compiled form gather
    /// the selected cells once and score them in one batch.
    ///
    /// # Errors
    ///
    /// Propagates model prediction errors.
    pub fn predict_rows(&self, prepared: &Prepared, rows: &[usize]) -> Result<Vec<f64>, CoreError> {
        let cols = col_indices(&self.features, self.uses_seq, self.seq_len);
        let flat = &prepared.samples.flat;
        if self.uses_seq || self.compiled().is_none() {
            let x = prepared.gather(rows, &cols, self.uses_seq)?;
            return Ok(self.model.predict_proba(&x)?);
        }
        // Positions into `rows`, in frame order.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        let sorted = rows.is_sorted();
        if !sorted {
            order.sort_by_key(|&k| rows[k]);
        }
        let meta = flat.meta();
        let runs: Vec<&[usize]> = order
            .chunk_by(|&a, &b| meta[rows[a]].group == meta[rows[b]].group)
            .collect();
        let probs = crate::deploy::score_streams(
            self,
            &runs,
            &cols,
            Workers::from_config(self.n_threads),
            |run, buf| {
                let mut cursor = flat.cursor();
                for &k in *run {
                    buf.gather(cursor.seek(rows[k]));
                }
                Ok(())
            },
            |_, (), probs, out| out.extend_from_slice(probs),
        )?;
        if sorted {
            return Ok(probs);
        }
        let mut out = vec![0.0; rows.len()];
        for (&k, p) in order.iter().zip(probs) {
            out[k] = p;
        }
        Ok(out)
    }

    /// Scores a raw feature matrix whose columns are already the model's
    /// selected features, with the dense kernel.
    ///
    /// Rows are scored independently, in any order: this is the path for
    /// batches with no per-drive structure, such as the
    /// [`crate::FleetMonitor`] sweep (one latest row per drive) and
    /// [`crate::deploy::DriveMonitor::score`]'s single row. Drive-ordered
    /// batches take the per-drive sequential loop instead:
    /// [`TrainedMfpa::predict_rows`] and [`crate::deploy::score_fleet`].
    ///
    /// # Errors
    ///
    /// Propagates model prediction errors.
    pub fn predict_matrix(&self, x: &Matrix) -> Result<Vec<f64>, CoreError> {
        match self.compiled() {
            Some(c) => Ok(c.predict_proba(x)?),
            None => Ok(self.model.predict_proba(x)?),
        }
    }

    /// Evaluates the given rows at both sample and drive granularity.
    ///
    /// # Errors
    ///
    /// Propagates model prediction errors.
    pub fn evaluate_rows(
        &self,
        prepared: &Prepared,
        rows: &[usize],
        name: &str,
    ) -> Result<EvalReport, CoreError> {
        let t0 = Instant::now();
        let probs = self.predict_rows(prepared, rows)?;
        let predict_secs = t0.elapsed().as_secs_f64();

        let frame = &prepared.samples.flat;
        let labels: Vec<bool> = rows.iter().map(|&i| frame.labels()[i]).collect();
        let preds: Vec<bool> = probs.iter().map(|&p| p >= self.threshold).collect();
        let sample = MetricSet {
            cm: ConfusionMatrix::from_labels(&labels, &preds),
            auc: auc(&labels, &probs),
        };

        // Drive-level aggregation: a drive is flagged when any of its
        // test rows crosses the threshold; it is truly faulty when any of
        // its test rows is a positive sample.
        let mut per_drive: BTreeMap<u64, (bool, f64)> = BTreeMap::new();
        for ((&row, &label), &p) in rows.iter().zip(&labels).zip(&probs) {
            let group = frame.meta()[row].group;
            let entry = per_drive.entry(group).or_insert((false, 0.0));
            entry.0 |= label;
            entry.1 = entry.1.max(p);
        }
        // Labelled failures with no telemetry in their positive window are
        // unpredictable by construction; when their label day falls inside
        // the evaluation window they are drive-level misses (the paper's
        // "faulty disks with no data around IMT − θ" TPR penalty).
        let window = rows.iter().map(|&r| frame.meta()[r].time).fold(
            None::<(i64, i64)>,
            |acc, t| match acc {
                None => Some((t, t)),
                Some((lo, hi)) => Some((lo.min(t), hi.max(t))),
            },
        );
        if let Some((lo, hi)) = window {
            for &(group, label_day) in &prepared.samples.unwindowed_failures {
                if label_day >= lo && label_day <= hi {
                    per_drive.entry(group).or_insert((true, 0.0)).0 = true;
                }
            }
        }
        let drive_labels: Vec<bool> = per_drive.values().map(|&(l, _)| l).collect();
        let drive_scores: Vec<f64> = per_drive.values().map(|&(_, s)| s).collect();
        let drive_preds: Vec<bool> = drive_scores.iter().map(|&s| s >= self.threshold).collect();
        let drive = MetricSet {
            cm: ConfusionMatrix::from_labels(&drive_labels, &drive_preds),
            auc: auc(&drive_labels, &drive_scores),
        };

        Ok(EvalReport {
            name: name.to_owned(),
            sample,
            drive,
            n_test_drives: per_drive.len(),
            n_failed_test_drives: drive_labels.iter().filter(|&&l| l).count(),
            timings: StageTimings {
                n_train_rows: self.n_train_rows,
                train_secs: self.train_secs,
                n_test_rows: rows.len(),
                predict_secs,
                ..Default::default()
            },
        })
    }
}

/// Column indices of the selected features inside the flat or sequence
/// frame.
fn col_indices(features: &[FeatureId], uses_seq: bool, seq_len: usize) -> Vec<usize> {
    let n_full = FeatureId::full_row().len();
    let base: Vec<usize> = features.iter().map(FeatureId::full_index).collect();
    if !uses_seq {
        return base;
    }
    (0..seq_len)
        .flat_map(|t| base.iter().map(move |&c| t * n_full + c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfpa_fleetsim::FleetConfig;

    fn fleet() -> &'static SimulatedFleet {
        static FLEET: std::sync::OnceLock<SimulatedFleet> = std::sync::OnceLock::new();
        FLEET.get_or_init(|| SimulatedFleet::generate(&FleetConfig::tiny(11)))
    }

    #[test]
    fn full_run_produces_sane_report() {
        let cfg = MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest);
        let report = Mfpa::new(cfg).run(fleet()).unwrap();
        assert!(report.drive.auc > 0.6, "drive AUC = {}", report.drive.auc);
        assert!(report.n_test_drives > 0);
        assert!(report.timings.n_train_rows > 0);
        assert!(report.timings.n_test_rows > 0);
    }

    #[test]
    fn prepare_exposes_counts() {
        let cfg = MfpaConfig::new(FeatureGroup::S, Algorithm::Bayes);
        let prepared = Mfpa::new(cfg).prepare(fleet()).unwrap();
        assert!(prepared.n_series() > 0);
        assert!(prepared.n_rows() > prepared.n_series()); // multiple days per drive
        assert!(!prepared.failure_days().is_empty());
        assert!(prepared.n_raw_records() >= prepared.n_rows() / 2);
    }

    #[test]
    fn vendor_restriction_filters_samples() {
        let all = Mfpa::new(MfpaConfig::new(FeatureGroup::S, Algorithm::Bayes))
            .prepare(fleet())
            .unwrap();
        let only_ii =
            Mfpa::new(MfpaConfig::new(FeatureGroup::S, Algorithm::Bayes).with_vendor(Vendor::II))
                .prepare(fleet())
                .unwrap();
        assert!(only_ii.n_rows() < all.n_rows());
        assert!(only_ii
            .samples()
            .flat
            .meta()
            .iter()
            .all(|m| m.tag == Vendor::II.index() as u32));
    }

    #[test]
    fn feature_group_changes_model_width() {
        let cfg = MfpaConfig::new(FeatureGroup::W, Algorithm::RandomForest);
        let report = Mfpa::new(cfg).run(fleet()).unwrap();
        assert!(report.sample.auc > 0.0);
        // Custom columns override the group.
        let custom = MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest)
            .with_custom_columns(FeatureGroup::S.features());
        assert_eq!(custom.selected_features().len(), 16);
        assert!(custom.label().contains("custom"));
    }

    #[test]
    fn rows_in_window_filters_by_time() {
        let cfg = MfpaConfig::new(FeatureGroup::S, Algorithm::Bayes);
        let prepared = Mfpa::new(cfg).prepare(fleet()).unwrap();
        let rows = prepared.rows_in_window(0, 30);
        assert!(!rows.is_empty());
        assert!(rows
            .iter()
            .all(|&r| (0..30).contains(&prepared.samples().flat.meta()[r].time)));
    }

    #[test]
    fn col_indices_for_sequences() {
        let feats = FeatureGroup::S.features();
        let flat = col_indices(&feats, false, 5);
        assert_eq!(flat.len(), 16);
        let seq = col_indices(&feats, true, 3);
        assert_eq!(seq.len(), 48);
        assert_eq!(seq[16], 45); // second step starts at the next block
    }

    #[test]
    fn degenerate_training_window_is_reported() {
        let cfg = MfpaConfig::new(FeatureGroup::S, Algorithm::Bayes);
        let mfpa = Mfpa::new(cfg);
        let prepared = mfpa.prepare(fleet()).unwrap();
        // Rows restricted to negatives only (healthy drives' early days).
        let neg_rows: Vec<usize> = prepared
            .samples()
            .flat
            .labels()
            .iter()
            .enumerate()
            .filter(|(_, &l)| !l)
            .map(|(i, _)| i)
            .take(50)
            .collect();
        let err = mfpa.train_rows(&prepared, &neg_rows).unwrap_err();
        assert!(matches!(err, CoreError::DegenerateTrainingSet(_)));
    }

    #[test]
    fn sanitize_is_identity_on_clean_fleets() {
        let cfg = MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest);
        assert!(cfg.sanitize.is_some(), "sanitization is on by default");
        let on = Mfpa::new(cfg.clone()).run(fleet()).unwrap();
        let off = Mfpa::new(cfg.with_sanitize(None)).run(fleet()).unwrap();
        assert_eq!(on.sample.cm, off.sample.cm);
        assert_eq!(on.drive.cm, off.drive.cm);
        assert_eq!(on.sample.auc.to_bits(), off.sample.auc.to_bits());
        assert_eq!(on.drive.auc.to_bits(), off.drive.auc.to_bits());
        assert_eq!(on.timings.n_quarantined, 0);
        assert_eq!(on.timings.n_repaired, 0);
    }

    #[test]
    fn prepared_surfaces_sanitize_report() {
        let cfg = MfpaConfig::new(FeatureGroup::S, Algorithm::Bayes);
        let prepared = Mfpa::new(cfg).prepare(fleet()).unwrap();
        let report = prepared.sanitize_report();
        assert!(
            report.is_clean(),
            "clean fleet must sanitize cleanly: {report:?}"
        );
        assert_eq!(report.input_records, prepared.n_raw_records());
        assert_eq!(report.kept_records, prepared.n_raw_records());
    }

    #[test]
    fn train_rows_compiles_tree_ensembles() {
        for (algorithm, compiles) in [
            (Algorithm::RandomForest, true),
            (Algorithm::Gbdt, true),
            (Algorithm::Bayes, false),
        ] {
            let mfpa = Mfpa::new(MfpaConfig::new(FeatureGroup::Sfwb, algorithm));
            let prepared = mfpa.prepare(fleet()).unwrap();
            let all: Vec<usize> = (0..prepared.n_rows()).collect();
            let mut trained = mfpa.train_rows(&prepared, &all).unwrap();
            assert_eq!(trained.compiled().is_some(), compiles, "{algorithm:?}");
            assert_eq!(trained.compile(), compiles, "{algorithm:?}");
        }
    }

    /// A sequence model reads `seq_len × features` columns, so a flat
    /// artifact over the same features must not install: its width
    /// check alone would pass (16 = 16) and scoring would fail later.
    #[test]
    fn sequence_models_refuse_compiled_artifacts() {
        let mut cfg = MfpaConfig::new(FeatureGroup::S, Algorithm::CnnLstm);
        cfg.window.seq_len = 3;
        let cnn = Mfpa::new(cfg);
        let prepared = cnn.prepare(fleet()).unwrap();
        let all: Vec<usize> = (0..prepared.n_rows()).collect();
        let artifact = Mfpa::new(MfpaConfig::new(FeatureGroup::S, Algorithm::RandomForest))
            .train_rows(&prepared, &all)
            .unwrap()
            .compiled_artifact()
            .unwrap();

        let mut trained = cnn.train_rows(&prepared, &all).unwrap();
        assert_eq!(trained.features().len(), 16);
        let err = trained.install_compiled_artifact(&artifact).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedModel(_)), "{err}");
        assert!(trained.compiled().is_none());
        assert_eq!(
            trained.predict_rows(&prepared, &all).unwrap().len(),
            all.len()
        );
    }

    #[test]
    fn ratio_split_also_works() {
        let cfg = MfpaConfig::new(FeatureGroup::Sf, Algorithm::Bayes)
            .with_split(SplitStrategy::Ratio { test_fraction: 0.3 });
        let report = Mfpa::new(cfg).run(fleet()).unwrap();
        assert!(report.timings.n_test_rows > 0);
    }
}
