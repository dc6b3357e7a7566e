//! Model fit/predict throughput for the five MFPA algorithms on a fixed
//! synthetic task (the per-model slice of Fig 20's training/prediction
//! overhead).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use mfpa_dataset::Matrix;
use mfpa_ml::{Classifier, CnnLstm, GaussianNb, Gbdt, LinearSvm, RandomForest};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A 600-row, 45-feature task with 10 informative columns.
fn task(seed: u64) -> (Matrix, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for i in 0..600 {
        let pos = i % 4 == 0;
        let mut row = Vec::with_capacity(45);
        for f in 0..45 {
            let signal = if pos && f < 10 { 2.0 } else { 0.0 };
            row.push(signal + rng.random_range(-1.0..1.0));
        }
        rows.push(row);
        y.push(pos);
    }
    (Matrix::from_rows(&rows).unwrap(), y)
}

fn bench_fit(c: &mut Criterion) {
    let (x, y) = task(1);
    let mut group = c.benchmark_group("fit");
    group.sample_size(10);
    group.bench_function("bayes", |b| {
        b.iter(|| {
            let mut m = GaussianNb::new().with_log1p(true);
            m.fit(black_box(&x), black_box(&y)).unwrap();
            black_box(m)
        })
    });
    group.bench_function("svm", |b| {
        b.iter(|| {
            let mut m = LinearSvm::new(1e-3, 10).with_seed(2);
            m.fit(black_box(&x), black_box(&y)).unwrap();
            black_box(m)
        })
    });
    group.bench_function("random_forest_40x10", |b| {
        b.iter(|| {
            let mut m = RandomForest::new(40, 10).with_seed(2);
            m.fit(black_box(&x), black_box(&y)).unwrap();
            black_box(m)
        })
    });
    group.bench_function("gbdt_50x3", |b| {
        b.iter(|| {
            let mut m = Gbdt::new(50, 0.2, 3).with_seed(2);
            m.fit(black_box(&x), black_box(&y)).unwrap();
            black_box(m)
        })
    });
    group.bench_function("cnn_lstm_5x9_3epochs", |b| {
        // 45 columns = 5 steps × 9 features for the sequence model.
        b.iter(|| {
            let mut m = CnnLstm::new(5, 9).with_epochs(3).with_seed(2);
            m.fit(black_box(&x), black_box(&y)).unwrap();
            black_box(m)
        })
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let (x, y) = task(1);
    let mut rf = RandomForest::new(120, 12).with_seed(3);
    rf.fit(&x, &y).unwrap();
    let mut group = c.benchmark_group("predict");
    group.bench_function("random_forest_120x12_600rows", |b| {
        b.iter(|| black_box(rf.predict_proba(black_box(&x)).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_fit, bench_predict);
criterion_main!(benches);
