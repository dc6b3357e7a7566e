//! Cross-process `.mfpac` smoke used by `scripts/check.sh`.
//!
//! `save <dir>` fits a small deterministic GBDT, compiles it, and
//! writes the artifact plus the expected probability bits; `load
//! <dir>` runs in a *fresh process*, decodes the artifact, and
//! asserts the recomputed bits match exactly; `corrupt <dir>` flips
//! one bit of the artifact and asserts the decoder refuses it with a
//! structured error. Any contract violation exits non-zero.

use mfpa_dataset::Matrix;
use mfpa_ml::{Classifier, CompiledEnsemble, Gbdt, MlError};

/// Deterministic training matrix: three features over a small integer
/// alphabet, rows varied enough to give every feature real splits.
fn train_matrix() -> Result<(Matrix, Vec<bool>), String> {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..48u64 {
        let a = (i * 7 + 3) % 5;
        let b = (i * 11 + 1) % 4;
        let c = (i * 5 + 2) % 6;
        rows.push(vec![a as f64, b as f64, c as f64]);
        labels.push((a + b * 2 + c) % 3 == 0);
    }
    let x = Matrix::from_rows(&rows).map_err(|e| format!("train matrix: {e}"))?;
    Ok((x, labels))
}

/// Evaluation matrix straddling the training alphabet: on-threshold,
/// between-threshold, out-of-range and NaN values all appear.
fn eval_matrix() -> Result<Matrix, String> {
    let mut rows = Vec::new();
    for i in 0..40u64 {
        let base = i as f64 * 0.37 - 1.2;
        let nan_here = i % 7 == 3;
        rows.push(vec![
            if nan_here { f64::NAN } else { base },
            (i % 6) as f64 - 0.5,
            base * 1.7,
        ]);
    }
    Matrix::from_rows(&rows).map_err(|e| format!("eval matrix: {e}"))
}

fn compile_model() -> Result<CompiledEnsemble, String> {
    let (x, y) = train_matrix()?;
    let mut model = Gbdt::new(12, 0.2, 3).with_seed(42);
    model.fit(&x, &y).map_err(|e| format!("fit: {e}"))?;
    model
        .compiled()
        .cloned()
        .ok_or_else(|| "gbdt must compile".to_string())
}

fn bits_of(engine: &CompiledEnsemble) -> Result<Vec<u64>, String> {
    let probs = engine
        .predict_proba(&eval_matrix()?)
        .map_err(|e| format!("predict: {e}"))?;
    Ok(probs.iter().map(|p| p.to_bits()).collect())
}

fn save(dir: &str) -> Result<(), String> {
    let engine = compile_model()?;
    let artifact = engine.to_bytes();
    std::fs::write(format!("{dir}/model.mfpac"), &artifact)
        .map_err(|e| format!("write artifact: {e}"))?;
    let expected: String = bits_of(&engine)?
        .iter()
        .map(|b| format!("{b:016x}\n"))
        .collect();
    std::fs::write(format!("{dir}/expected.txt"), expected)
        .map_err(|e| format!("write expected: {e}"))?;
    println!(
        "saved {} byte artifact + {} expected rows",
        artifact.len(),
        40
    );
    Ok(())
}

fn load(dir: &str) -> Result<(), String> {
    let artifact =
        std::fs::read(format!("{dir}/model.mfpac")).map_err(|e| format!("read artifact: {e}"))?;
    let engine = CompiledEnsemble::from_bytes(&artifact).map_err(|e| format!("decode: {e}"))?;
    let got = bits_of(&engine)?;
    let expected = std::fs::read_to_string(format!("{dir}/expected.txt"))
        .map_err(|e| format!("read expected: {e}"))?;
    let want: Vec<u64> = expected
        .lines()
        .map(|l| u64::from_str_radix(l, 16).map_err(|e| format!("expected.txt: {e}")))
        .collect::<Result<_, _>>()?;
    if got != want {
        let n = got.iter().zip(&want).filter(|(g, w)| g != w).count();
        return Err(format!(
            "{n} of {} probabilities differ across processes",
            want.len()
        ));
    }
    println!(
        "fresh-process round trip is bit-identical ({} rows)",
        want.len()
    );
    Ok(())
}

fn corrupt(dir: &str) -> Result<(), String> {
    let mut artifact =
        std::fs::read(format!("{dir}/model.mfpac")).map_err(|e| format!("read artifact: {e}"))?;
    // Flip one bit mid-body (deterministic position, past the header).
    let pos = artifact.len() / 2;
    artifact[pos] ^= 0x10;
    match CompiledEnsemble::from_bytes(&artifact) {
        Err(MlError::CorruptArtifact(msg)) => {
            println!("bit-flipped artifact refused: {msg}");
            Ok(())
        }
        Err(e) => Err(format!("refused with the wrong error kind: {e}")),
        Ok(_) => Err("bit-flipped artifact was accepted".to_string()),
    }
}

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("save") if args.len() == 3 => save(&args[2]),
        Some("load") if args.len() == 3 => load(&args[2]),
        Some("corrupt") if args.len() == 3 => corrupt(&args[2]),
        _ => Err("usage: mfpac_smoke <save|load|corrupt> <dir>".to_string()),
    }
}
