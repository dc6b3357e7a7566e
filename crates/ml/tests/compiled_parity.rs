//! Compiled-kernel parity against an independent oracle.
//!
//! A fitted `RandomForest` or `Gbdt` keeps only its compiled ensemble,
//! so its `predict_proba` *is* the kernel under test. The reference here
//! is [`Oracle`]: test code that decodes the documented `.mfpac` payload
//! by hand and scores rows the plain way, by raw `f64` threshold
//! compares. The contract is that every probability of the batch kernel
//! (at any worker count) and of the sequential per-device scorer is
//! *bit-identical* to the oracle's, for any input (NaN included), and
//! survives an `.mfpac` serialization round trip. Corrupt artifacts
//! must be refused with a structured error, never a panic.

use mfpa_bytes::{fnv1a64, unseal, ByteReader, ByteWriter};
use mfpa_dataset::Matrix;
use mfpa_ml::{Classifier, CompiledEnsemble, Gbdt, MlError, RandomForest};
use proptest::prelude::*;

/// The node marker for a leaf in the `feat` array.
const LEAF: u32 = u32::MAX;

/// How an ensemble reduces its per-tree leaf sum to a probability.
enum Reduce {
    /// Finalize tag 0: the mean leaf value, clamped to `[0, 1]`.
    RfMean,
    /// Finalize tag 1: `sigmoid(base_score + Σ learning_rate · leaf)`.
    GbdtLogistic { base_score: f64, learning_rate: f64 },
}

/// An `.mfpac` payload decoded field by field from its documented
/// layout, scored without any of the compiled engine's machinery: no
/// bin codes, no cuts, no blocks. Each row walks each tree from its
/// root, going left iff `value <= threshold` (so NaN goes right) and
/// right to `left + 1` otherwise; leaves are summed in tree order and
/// the reduction is applied here.
struct Oracle {
    reduce: Reduce,
    roots: Vec<u32>,
    depths: Vec<u32>,
    feat: Vec<u32>,
    thr: Vec<f64>,
    left: Vec<u32>,
    value: Vec<f64>,
}

impl Oracle {
    fn decode(artifact: &[u8]) -> Oracle {
        let body = unseal(artifact).expect("sealed artifact");
        let mut rd = ByteReader::new(body);
        let u32s = |rd: &mut ByteReader, n: usize| -> Vec<u32> {
            (0..n).map(|_| rd.u32().expect("u32 field")).collect()
        };
        assert_eq!(rd.u32().expect("magic"), 0x4350_464D, "magic \"MFPC\"");
        assert_eq!(rd.u32().expect("version"), 2, "version");
        let _n_features = rd.counter().expect("n_features");
        let n_trees = rd.counter().expect("n_trees");
        let n_nodes = rd.counter().expect("n_nodes");
        let tag = rd.u8().expect("finalize tag");
        let (a, b) = (rd.f64().expect("param"), rd.f64().expect("param"));
        let reduce = match tag {
            0 => Reduce::RfMean,
            1 => Reduce::GbdtLogistic {
                base_score: a,
                learning_rate: b,
            },
            other => panic!("unknown finalize tag {other}"),
        };
        let roots = u32s(&mut rd, n_trees);
        let depths = u32s(&mut rd, n_trees);
        let feat = u32s(&mut rd, n_nodes);
        let thr = (0..n_nodes).map(|_| rd.f64().expect("thr")).collect();
        let left = u32s(&mut rd, n_nodes);
        let value = (0..n_nodes).map(|_| rd.f64().expect("value")).collect();
        assert!(rd.done(), "trailing bytes after the value array");
        Oracle {
            reduce,
            roots,
            depths,
            feat,
            thr,
            left,
            value,
        }
    }

    /// The leaf tree `t` routes `row` to, reached in at most the tree's
    /// stored depth.
    fn leaf(&self, t: usize, row: &[f64]) -> f64 {
        let mut ix = self.roots[t] as usize;
        for _ in 0..self.depths[t] {
            let f = self.feat[ix];
            if f == LEAF {
                break;
            }
            let left = self.left[ix] as usize;
            ix = if row[f as usize] <= self.thr[ix] {
                left
            } else {
                left + 1
            };
        }
        assert_eq!(
            self.feat[ix], LEAF,
            "tree {t} is deeper than its stored depth"
        );
        self.value[ix]
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        let trees = 0..self.roots.len();
        match self.reduce {
            Reduce::RfMean => {
                let mut sum = 0.0;
                for t in trees {
                    sum += self.leaf(t, row);
                }
                (sum / self.roots.len() as f64).clamp(0.0, 1.0)
            }
            Reduce::GbdtLogistic {
                base_score,
                learning_rate,
            } => {
                let mut sum = base_score;
                for t in trees {
                    sum += learning_rate * self.leaf(t, row);
                }
                1.0 / (1.0 + (-sum.clamp(-700.0, 700.0)).exp())
            }
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.rows().map(|row| self.predict_row(row)).collect()
    }
}

/// Training matrix over a small integer alphabet (guarantees split-able
/// features without degenerate single-value columns).
fn int_matrix(cells: &[usize], n_cols: usize, alphabet: usize) -> Matrix {
    let rows: Vec<Vec<f64>> = cells
        .chunks(n_cols)
        .map(|chunk| chunk.iter().map(|&c| (c % alphabet) as f64).collect())
        .collect();
    Matrix::from_rows(&rows).expect("non-empty rectangular rows")
}

/// Evaluation matrix with continuous values straddling the training
/// alphabet (so rows land between, on, and outside the fitted
/// thresholds) and NaN holes injected where `nan_at` hits.
fn eval_matrix(cells: &[f64], n_cols: usize, nan_at: &[bool]) -> Matrix {
    let rows: Vec<Vec<f64>> = cells
        .chunks(n_cols)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(j, &v)| {
                    if nan_at[j % nan_at.len()] {
                        f64::NAN
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&rows).expect("non-empty rectangular rows")
}

fn labels(bits: &[bool]) -> Vec<bool> {
    let mut y = bits.to_vec();
    y[0] = true;
    y[1] = false;
    y
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|p| p.to_bits()).collect()
}

proptest! {
    #[test]
    fn rf_compiled_bit_identical_and_thread_invariant(
        cells in prop::collection::vec(0usize..6, 3 * 24..3 * 60),
        raw_labels in prop::collection::vec(any::<bool>(), 60),
        eval in prop::collection::vec(-1.0f64..7.0, 3 * 40),
        nan_at in prop::collection::vec(any::<bool>(), 7),
        seed in 0u64..1000,
    ) {
        let n_cols = 3;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 6);
        let y = labels(&raw_labels[..x.n_rows()]);
        let mut rf = RandomForest::new(8, 6).with_seed(seed);
        rf.fit(&x, &y).expect("fit");
        let compiled = rf.compiled().expect("rf compiles");

        let nan_at = if nan_at.iter().all(|&b| b) { vec![false] } else { nan_at };
        let xe = eval_matrix(&eval, n_cols, &nan_at);
        let reference = bits(&Oracle::decode(&compiled.to_bytes()).predict(&xe));
        prop_assert_eq!(&bits(&rf.predict_proba(&xe).expect("rf")), &reference);
        for threads in [1usize, 2, 7] {
            let engine = compiled.clone().with_threads(threads);
            let got = bits(&engine.predict_proba(&xe).expect("compiled"));
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
        }
    }

    #[test]
    fn gbdt_compiled_bit_identical_and_thread_invariant(
        cells in prop::collection::vec(0usize..5, 3 * 24..3 * 60),
        raw_labels in prop::collection::vec(any::<bool>(), 60),
        eval in prop::collection::vec(-1.0f64..6.0, 3 * 40),
        nan_at in prop::collection::vec(any::<bool>(), 7),
        seed in 0u64..1000,
    ) {
        let n_cols = 3;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 5);
        let y = labels(&raw_labels[..x.n_rows()]);
        let mut gb = Gbdt::new(15, 0.2, 3).with_seed(seed);
        gb.fit(&x, &y).expect("fit");
        let compiled = gb.compiled().expect("gbdt compiles");

        let nan_at = if nan_at.iter().all(|&b| b) { vec![false] } else { nan_at };
        let xe = eval_matrix(&eval, n_cols, &nan_at);
        let reference = bits(&Oracle::decode(&compiled.to_bytes()).predict(&xe));
        prop_assert_eq!(&bits(&gb.predict_proba(&xe).expect("gbdt")), &reference);
        for threads in [1usize, 2, 7] {
            let engine = compiled.clone().with_threads(threads);
            let got = bits(&engine.predict_proba(&xe).expect("compiled"));
            prop_assert_eq!(&got, &reference, "threads = {}", threads);
        }
    }

    #[test]
    fn sequential_scorer_matches_batch(
        cells in prop::collection::vec(0usize..5, 4 * 24..4 * 60),
        raw_labels in prop::collection::vec(any::<bool>(), 60),
        deltas in prop::collection::vec(-1.5f64..2.0, 4 * 50),
        nan_at in prop::collection::vec(any::<bool>(), 11),
        hint2 in any::<bool>(),
        gbdt in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n_cols = 4;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 5);
        let y = labels(&raw_labels[..x.n_rows()]);
        let mut model: Box<dyn Classifier> = if gbdt {
            Box::new(Gbdt::new(12, 0.2, 3).with_seed(seed))
        } else {
            Box::new(RandomForest::new(6, 6).with_seed(seed))
        };
        model.fit(&x, &y).expect("fit");
        let compiled = model.compiled().expect("compiles");

        // A device stream: column 0 is a cumulative counter, column 1
        // drifts freely, column 2 oscillates. Column 3 lands exactly on
        // its own edges (so `v <= t` holds with equality) and
        // goes NaN on every fifth row (NaN → value → NaN).
        // A column no tree splits on has no edges; stream a fixed value.
        let edges = match compiled.edges()[3].as_slice() {
            [] => vec![2.0],
            edges => edges.to_vec(),
        };
        let mut rows: Vec<f64> = Vec::new();
        let mut state = [1.0f64, 2.0, 2.0, 0.0];
        for (i, d) in deltas.chunks(n_cols).enumerate() {
            state[0] += d[0].abs();
            state[1] += d[1];
            state[2] = 2.0 + d[2];
            state[3] = if i % 5 == 0 {
                f64::NAN
            } else {
                edges[((d[3] + 1.5) * 7.0) as usize % edges.len()]
            };
            for (f, &s) in state.iter().enumerate() {
                let v = if nan_at[(i * n_cols + f) % nan_at.len()] { f64::NAN } else { s };
                rows.push(v);
            }
        }
        // The scorer ignores the mask; `hint2` sometimes marks column 2
        // monotone *wrongly*, and the scores must not move.
        let monotone = vec![true, false, hint2, false];
        let mut scorer = compiled.sequential(&monotone).expect("scorer");
        let mut got = Vec::new();
        scorer.score_rows(&rows, &mut got).expect("score_rows");

        let xe = Matrix::from_rows(
            &rows.chunks(n_cols).map(<[f64]>::to_vec).collect::<Vec<_>>(),
        ).expect("matrix");
        let reference = Oracle::decode(&compiled.to_bytes()).predict(&xe);
        prop_assert_eq!(bits(&got), bits(&reference));

        // Reset and replay: a reused scorer must match a fresh one.
        let mut replay = Vec::new();
        scorer.reset();
        scorer.score_rows(&rows, &mut replay).expect("replay");
        prop_assert_eq!(bits(&replay), bits(&got));
    }

    #[test]
    fn mfpac_roundtrip_bit_identical(
        cells in prop::collection::vec(0usize..5, 3 * 24..3 * 48),
        raw_labels in prop::collection::vec(any::<bool>(), 48),
        eval in prop::collection::vec(-1.0f64..6.0, 3 * 20),
        gbdt in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let n_cols = 3;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 5);
        let y = labels(&raw_labels[..x.n_rows()]);
        let compiled = if gbdt {
            let mut m = Gbdt::new(10, 0.2, 3).with_seed(seed);
            m.fit(&x, &y).expect("fit");
            m.compiled().expect("compiles").clone()
        } else {
            let mut m = RandomForest::new(5, 5).with_seed(seed);
            m.fit(&x, &y).expect("fit");
            m.compiled().expect("compiles").clone()
        };

        let artifact = compiled.to_bytes();
        let loaded = CompiledEnsemble::from_bytes(&artifact).expect("roundtrip decodes");
        // Canonical encoding: re-encoding the decoded artifact reproduces
        // it byte for byte.
        prop_assert_eq!(loaded.to_bytes(), artifact);
        prop_assert_eq!(loaded.n_trees(), compiled.n_trees());
        prop_assert_eq!(loaded.n_nodes(), compiled.n_nodes());
        prop_assert_eq!(loaded.edges(), compiled.edges());

        let xe = eval_matrix(&eval, n_cols, &[false]);
        prop_assert_eq!(
            bits(&loaded.predict_proba(&xe).expect("loaded")),
            bits(&compiled.predict_proba(&xe).expect("original"))
        );
    }

    #[test]
    fn mfpac_corruption_refused_never_panics(
        cells in prop::collection::vec(0usize..5, 3 * 24..3 * 40),
        raw_labels in prop::collection::vec(any::<bool>(), 40),
        cut in 0.0f64..1.0,
        flip_pos in 0.0f64..1.0,
        flip_bit in 0u8..8,
        seed in 0u64..1000,
    ) {
        let n_cols = 3;
        let x = int_matrix(&cells[..cells.len() / n_cols * n_cols], n_cols, 5);
        let y = labels(&raw_labels[..x.n_rows()]);
        let mut m = Gbdt::new(8, 0.2, 3).with_seed(seed);
        m.fit(&x, &y).expect("fit");
        let artifact = m.compiled().expect("compiles").to_bytes();

        // Any strict truncation must be refused with a structured error.
        let keep = (cut * artifact.len() as f64) as usize; // < len since cut < 1
        match CompiledEnsemble::from_bytes(&artifact[..keep]) {
            Err(MlError::CorruptArtifact(_)) => {}
            other => prop_assert!(false, "truncation to {} bytes: {:?}", keep, other.map(|_| "Ok")),
        }

        // Any single bit flip must be refused: FNV-1a-64's per-byte
        // steps are bijective, so a one-byte change always changes the
        // digest, and a flip in the footer no longer matches the body.
        let mut flipped = artifact.clone();
        let pos = (flip_pos * flipped.len() as f64) as usize;
        let pos = pos.min(flipped.len() - 1);
        flipped[pos] ^= 1 << flip_bit;
        match CompiledEnsemble::from_bytes(&flipped) {
            Err(MlError::CorruptArtifact(_)) => {}
            other => prop_assert!(
                false,
                "bit {} of byte {} flipped: {:?}",
                flip_bit,
                pos,
                other.map(|_| "Ok")
            ),
        }
    }
}

/// Deterministic hostile inputs for the decoder: junk, empty, and a
/// header-only stub must all produce structured errors, never panics.
#[test]
fn mfpac_rejects_junk() {
    for bad in [
        &[][..],
        &[0u8; 4][..],
        &[0u8; 64][..],
        b"MFPCnot-an-artifact-just-ascii-padding-...".as_slice(),
    ] {
        match CompiledEnsemble::from_bytes(bad) {
            Err(MlError::CorruptArtifact(_)) => {}
            other => panic!("junk accepted: {other:?}"),
        }
    }
}

/// A sealed single-tree RfMean `.mfpac` over one feature whose node
/// `k` splits on `feat[k]` (`u32::MAX` marks a leaf). Every other
/// field is zero, so the root leaf leaves the remaining nodes dead.
fn one_tree_artifact(feat: &[u32]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(0x4350_464D); // magic "MFPC"
    w.u32(2); // version
    w.counter(1); // n_features
    w.counter(1); // n_trees
    w.counter(feat.len()); // n_nodes
    w.u8(0); // RfMean
    w.f64(0.0);
    w.f64(0.0);
    w.u32(0); // tree_roots[0]
    w.u32(0); // tree_depths[0]
    for &f in feat {
        w.u32(f);
    }
    for _ in feat {
        w.f64(0.0); // thr
    }
    for _ in feat {
        w.u32(0); // left
    }
    for _ in feat {
        w.f64(0.0); // value
    }
    w.into_sealed()
}

/// An artifact written before the checksum changed — version 1, sealed
/// with an FNV-1a-64 footer — is refused by its version, not reported as
/// a checksum mismatch.
#[test]
fn mfpac_refuses_old_version_artifacts() {
    let current = one_tree_artifact(&[LEAF]);
    let mut old = unseal(&current).expect("sealed").to_vec();
    old[4..8].copy_from_slice(&1u32.to_le_bytes());
    let footer = fnv1a64(&old);
    old.extend_from_slice(&footer.to_le_bytes());
    match CompiledEnsemble::from_bytes(&old) {
        Err(MlError::CorruptArtifact(msg)) => {
            assert!(msg.contains("unsupported version 1"), "{msg}");
        }
        other => panic!("expected a version refusal, got {other:?}"),
    }
}

/// Nodes no root reaches are refused: validation only walks reachable
/// nodes while lane building walks all of them, so a dead node could
/// smuggle an out-of-range feature past the checks.
#[test]
fn mfpac_refuses_unreachable_nodes() {
    assert!(
        CompiledEnsemble::from_bytes(&one_tree_artifact(&[LEAF])).is_ok(),
        "the one-leaf control artifact must decode"
    );
    for dead in [[LEAF, 5, 5], [LEAF, 0, 0]] {
        match CompiledEnsemble::from_bytes(&one_tree_artifact(&dead)) {
            Err(MlError::CorruptArtifact(msg)) => {
                assert!(msg.contains("unreachable"), "{msg}");
            }
            other => panic!("dead nodes {dead:?} accepted: {other:?}"),
        }
    }
}
