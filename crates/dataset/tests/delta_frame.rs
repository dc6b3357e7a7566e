//! Property tests for the delta-encoded frame: whatever rows are pushed,
//! every decoded row, every dense row or cell selection and every
//! cursor walk equals a dense `FeatureFrame` of the same rows bit for
//! bit, and the encoding is a pure function of the pushed rows.

use mfpa_dataset::{DeltaFrame, FeatureFrame, SampleMeta};
use proptest::prelude::*;

/// Cell values that differ only in their bits: signed zeros, NaN
/// payloads, infinities.
const PALETTE: [f64; 8] = [
    0.0,
    -0.0,
    1.0,
    2.5,
    f64::NAN,
    f64::INFINITY,
    f64::from_bits(0x7ff8_0000_0000_0001),
    f64::from_bits(0xfff8_0000_0000_0002),
];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Rows built by changing a few cells of the previous row: step `t`
/// belongs to `group`, and column `c` takes a palette value when bit
/// `c` of `change` is set.
fn build(n_cols: usize, steps: &[(u64, u64, u64)]) -> (DeltaFrame, FeatureFrame) {
    let names: Vec<String> = (0..n_cols).map(|c| format!("c{c}")).collect();
    let mut delta = DeltaFrame::new(names.clone()).expect("at most 64 columns");
    let mut dense = FeatureFrame::new(names);
    let mut row = vec![0.0; n_cols];
    for (t, &(group, change, pick)) in steps.iter().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            if change >> c & 1 == 1 {
                *cell = PALETTE[(pick.rotate_left(c as u32 * 3) % 8) as usize];
            }
        }
        let meta = SampleMeta::with_tag(group, t as i64, (pick % 4) as u32);
        let label = pick % 5 == 0;
        delta.push_row(&row, meta, label).expect("width");
        dense.push_row(&row, meta, label).expect("width");
    }
    (delta, dense)
}

/// Sparse change masks (about one column in eight per row) over up to
/// 64 columns, in up to four groups that interleave and come back.
fn steps_of(raw: &[(u64, u64, u64, u64)]) -> Vec<(u64, u64, u64)> {
    raw.iter()
        .map(|&(group, a, b, pick)| (group, a & b & pick.rotate_left(17), pick))
        .collect()
}

proptest! {
    #[test]
    fn every_decoded_row_equals_the_dense_row(
        n_cols in 0usize..=64,
        raw in prop::collection::vec((0u64..4, any::<u64>(), any::<u64>(), any::<u64>()), 0..150),
    ) {
        let (delta, dense) = build(n_cols, &steps_of(&raw));
        prop_assert_eq!(delta.n_rows(), dense.n_rows());
        prop_assert_eq!(delta.n_cols(), dense.n_cols());
        prop_assert_eq!(delta.meta(), dense.meta());
        prop_assert_eq!(delta.labels(), dense.labels());
        prop_assert_eq!(delta.n_positive(), dense.n_positive());
        let mut cursor = delta.cursor();
        for r in 0..dense.n_rows() {
            prop_assert_eq!(bits(cursor.seek(r)), bits(dense.matrix().row(r)));
        }
        // A run starts exactly where the group changes.
        let starts: Vec<usize> = delta.runs().iter().map(|&(first, _)| first).collect();
        let want: Vec<usize> = (0..dense.n_rows())
            .filter(|&r| r == 0 || dense.meta()[r].group != dense.meta()[r - 1].group)
            .collect();
        prop_assert_eq!(starts, want);
    }

    #[test]
    fn select_rows_equals_the_dense_selection(
        n_cols in 1usize..=64,
        raw in prop::collection::vec((0u64..4, any::<u64>(), any::<u64>(), any::<u64>()), 1..150),
        picks in prop::collection::vec(any::<u64>(), 0..80),
        sorted in any::<bool>(),
    ) {
        let (delta, dense) = build(n_cols, &steps_of(&raw));
        let mut rows: Vec<usize> = picks.iter().map(|&p| (p % raw.len() as u64) as usize).collect();
        if sorted {
            rows.sort_unstable();
        }
        let got = delta.select_rows(&rows);
        let want = dense.select_rows(&rows);
        prop_assert_eq!(bits(got.matrix().as_slice()), bits(want.matrix().as_slice()));
        prop_assert_eq!(got.meta(), want.meta());
        prop_assert_eq!(got.labels(), want.labels());
        prop_assert_eq!(got.feature_names(), want.feature_names());
    }

    #[test]
    fn gather_equals_the_dense_cell_selection(
        n_cols in 1usize..=64,
        raw in prop::collection::vec((0u64..4, any::<u64>(), any::<u64>(), any::<u64>()), 1..150),
        picks in prop::collection::vec(any::<u64>(), 0..80),
        col_picks in prop::collection::vec(any::<u64>(), 0..70),
        sorted in any::<bool>(),
    ) {
        let (delta, dense) = build(n_cols, &steps_of(&raw));
        let mut rows: Vec<usize> = picks.iter().map(|&p| (p % raw.len() as u64) as usize).collect();
        if sorted {
            rows.sort_unstable();
        }
        let cols: Vec<usize> = col_picks.iter().map(|&c| (c % n_cols as u64) as usize).collect();
        let got = delta.gather(&rows, &cols);
        let want = dense.select_rows(&rows).select_cols(&cols);
        prop_assert_eq!((got.n_rows(), got.n_cols()), (rows.len(), cols.len()));
        prop_assert_eq!(bits(got.as_slice()), bits(want.matrix().as_slice()));
    }

    #[test]
    fn cursor_seeks_in_any_order_decode_exactly(
        raw in prop::collection::vec((0u64..3, any::<u64>(), any::<u64>(), any::<u64>()), 1..120),
        seeks in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let (delta, dense) = build(45, &steps_of(&raw));
        let mut cursor = delta.cursor();
        for s in seeks {
            let r = (s % raw.len() as u64) as usize;
            prop_assert_eq!(bits(cursor.seek(r)), bits(dense.matrix().row(r)));
        }
    }

    #[test]
    fn the_encoding_stores_only_changed_cells(
        n_cols in 1usize..=64,
        raw in prop::collection::vec((0u64..2, any::<u64>(), any::<u64>(), any::<u64>()), 0..150),
    ) {
        let (delta, dense) = build(n_cols, &steps_of(&raw));
        let (again, _) = build(n_cols, &steps_of(&raw));
        prop_assert_eq!(delta.change_masks(), again.change_masks());
        prop_assert_eq!(bits(delta.changed_cells()), bits(again.changed_cells()));
        prop_assert_eq!(delta.runs(), again.runs());
        // Each row's mask is exactly its bit-changed columns (every
        // column on a run's first row), and the cells are those values.
        let x = dense.matrix();
        let mut cells = Vec::new();
        for r in 0..dense.n_rows() {
            let fresh = r == 0 || dense.meta()[r].group != dense.meta()[r - 1].group;
            let mask: u64 = (0..n_cols)
                .filter(|&c| fresh || x.get(r, c).to_bits() != x.get(r - 1, c).to_bits())
                .fold(0, |m, c| m | 1 << c);
            prop_assert_eq!(delta.change_masks()[r], mask);
            cells.extend((0..n_cols).filter(|&c| mask >> c & 1 == 1).map(|c| x.get(r, c)));
        }
        prop_assert_eq!(bits(delta.changed_cells()), bits(&cells));
    }
}
