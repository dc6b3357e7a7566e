//! The per-record feature step shared by training and serving.
//!
//! [`FeatureState`] is the one place the per-record repairs and the
//! 45-column feature row are written. The offline stages fold it over a
//! whole stream — [`crate::sanitize::sanitize`] folds the monitor's
//! admission step, which runs [`FeatureState::repair_page`], and
//! [`crate::preprocess::raw_rows`] folds [`FeatureState::push_row`] —
//! while the online [`crate::deploy::DriveMonitor`] steps both once per
//! accepted delivery. One code path, behind one reorder window, means a
//! drive is scored on exactly the rows its model was trained on.

use mfpa_telemetry::{BsodCode, DailyRecord, FirmwareVersion, SmartAttr};

use crate::features::MODEL_W_EVENTS;
use crate::sanitize::{QuarantineCause, SanitizeReport};

/// Width of the full feature row ([`crate::FeatureId::full_row`] order).
pub(crate) const ROW_WIDTH: usize = 45;

/// Incremental feature state for one drive's admitted records.
#[derive(Debug, Clone)]
pub(crate) struct FeatureState {
    /// Newest firmware stamp (row column 16).
    pub(crate) firmware: FirmwareVersion,
    /// Cumulative model Windows-event counts (columns 17..22).
    pub(crate) w_cum: [u64; 5],
    /// Cumulative BSOD counts (columns 22..45).
    pub(crate) b_cum: [u64; 23],
    /// Last valid raw value per attribute, NaN until one is seen: the
    /// NaN carry-forward source.
    pub(crate) carry: [f64; 16],
    /// Rollover base offset per attribute (only cumulative ones move).
    pub(crate) offsets: [f64; 16],
    /// Last repaired SMART page, `None` before the first one.
    pub(crate) page: Option<[f64; 16]>,
}

impl FeatureState {
    /// Fresh state for a drive currently running `firmware`.
    pub(crate) fn new(firmware: FirmwareVersion) -> Self {
        FeatureState {
            firmware,
            w_cum: [0; 5],
            b_cum: [0; 23],
            carry: [f64::NAN; 16],
            offsets: [0.0; 16],
            page: None,
        }
    }

    /// Repairs one SMART page in place. A NaN attribute takes the last
    /// valid raw value of that attribute; then a cumulative counter that
    /// runs below its predecessor raises its base offset to splice the
    /// two segments (a wrapped counter holds, then keeps accumulating).
    ///
    /// # Errors
    ///
    /// [`QuarantineCause::MissingValues`] when an attribute is NaN and no
    /// valid value was ever seen; the rollover state is left untouched.
    pub(crate) fn repair_page(
        &mut self,
        page: &mut [f64; 16],
        report: &mut SanitizeReport,
    ) -> Result<(), QuarantineCause> {
        let mut missing = false;
        for (v, carry) in page.iter_mut().zip(&mut self.carry) {
            if !v.is_nan() {
                *carry = *v;
            } else if carry.is_nan() {
                missing = true;
            } else {
                *v = *carry;
                report.values_imputed += 1;
            }
        }
        if missing {
            return Err(QuarantineCause::MissingValues);
        }
        let prev = self.page.unwrap_or([f64::NEG_INFINITY; 16]);
        let cumulative = SmartAttr::ALL.iter().filter(|a| a.is_cumulative());
        for ix in cumulative.map(|a| a.index()) {
            let v = page[ix] + self.offsets[ix];
            let v = if v < prev[ix] {
                self.offsets[ix] += prev[ix] - v;
                report.rollovers_repaired += 1;
                prev[ix]
            } else {
                v
            };
            // An unspliced counter keeps its raw bits (`-0.0 + 0.0` is
            // `+0.0`), so clean streams pass through bit for bit.
            if self.offsets[ix] > 0.0 {
                page[ix] = v;
            }
        }
        self.page = Some(*page);
        Ok(())
    }

    /// Folds one accepted record's firmware stamp and W/B counts into the
    /// state and writes its full row into `row`, with `page` as the SMART
    /// block.
    pub(crate) fn push_row(&mut self, record: &DailyRecord, page: &[f64], row: &mut [f64]) {
        // Firmware updates in the field are tracked as they appear.
        self.firmware.clone_from(&record.firmware);
        for (slot, ev) in self.w_cum.iter_mut().zip(MODEL_W_EVENTS) {
            *slot += u64::from(record.w(ev));
        }
        for (slot, code) in self.b_cum.iter_mut().zip(BsodCode::ALL) {
            *slot += u64::from(record.b(code));
        }
        self.write_row(page, row);
    }

    /// The row of the last repaired page and the current counters; empty
    /// before the first page.
    pub(crate) fn feature_row(&self) -> Vec<f64> {
        let mut row = Vec::new();
        if let Some(page) = &self.page {
            row.resize(ROW_WIDTH, 0.0);
            self.write_row(page, &mut row);
        }
        row
    }

    /// Writes the row of the current firmware and counters into `row`
    /// (exactly [`ROW_WIDTH`] wide), with `page` as the SMART block.
    fn write_row(&self, page: &[f64], row: &mut [f64]) {
        debug_assert_eq!(row.len(), ROW_WIDTH);
        row[..16].copy_from_slice(page);
        row[16] = self.firmware.encoded();
        for (slot, &v) in row[17..22].iter_mut().zip(&self.w_cum) {
            *slot = v as f64;
        }
        for (slot, &v) in row[22..].iter_mut().zip(&self.b_cum) {
            *slot = v as f64;
        }
    }
}
