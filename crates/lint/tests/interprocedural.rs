//! End-to-end tests for the interprocedural layer: the fixture
//! workspace under `tests/fixtures/ws/` is linted as a whole, its call
//! graph is pinned to a golden snapshot, and the parser and graph
//! builder are property-tested total.

use std::path::PathBuf;

use mfpa_lint::{build_call_graph, lint_files, SourceFile};
use proptest::prelude::*;

fn fixture_ws() -> Vec<SourceFile> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws");
    mfpa_lint::collect_workspace(&root).expect("fixture workspace readable")
}

/// The fixture workspace produces one finding per planted defect, each
/// carrying the full root-to-sink call chain.
#[test]
fn fixture_workspace_findings_carry_full_chains() {
    let report = lint_files(&fixture_ws());
    let findings: Vec<_> = report.unsuppressed().collect();

    let d8: Vec<_> = findings.iter().filter(|f| f.rule == "d8").collect();
    assert_eq!(d8.len(), 1, "{findings:#?}");
    assert_eq!(d8[0].file, "crates/core/src/sanitize.rs");
    assert_eq!(
        d8[0].chain,
        [
            "core::pipeline::Mfpa::prepare",
            "core::sanitize::clean",
            "core::sanitize::leaf",
        ],
        "unwrap two calls below `pipeline::prepare` must show the route"
    );

    let d7: Vec<_> = findings.iter().filter(|f| f.rule == "d7").collect();
    assert_eq!(d7.len(), 1, "{findings:#?}");
    assert_eq!(
        d7[0].chain,
        [
            "fleetsim::fleet::SimulatedFleet::generate",
            "fleetsim::fleet::census",
        ],
        "HashMap iteration reached from `fleet::generate` is d7"
    );

    let d9: Vec<_> = findings.iter().filter(|f| f.rule == "d9").collect();
    assert_eq!(d9.len(), 1, "{findings:#?}");
    assert_eq!(
        d9[0].chain,
        [
            "fleetsim::fleet::SimulatedFleet::generate",
            "fleetsim::fleet::tick",
        ],
        "clock escape reached from `fleet::generate` is d9"
    );

    // `orphan` is unreachable from every root: its unwrap is the
    // crate-scoped d5, with the enclosing function as chain.
    let d5: Vec<_> = findings.iter().filter(|f| f.rule == "d5").collect();
    assert_eq!(d5.len(), 1, "{findings:#?}");
    assert_eq!(d5[0].chain, ["fleetsim::fleet::orphan"]);

    // The unguarded ratio in `metrics` is a value-range d14, carrying
    // both the route from the root and the interval evidence.
    let d14: Vec<_> = findings.iter().filter(|f| f.rule == "d14").collect();
    assert_eq!(d14.len(), 1, "{findings:#?}");
    assert_eq!(d14[0].file, "crates/core/src/metrics.rs");
    assert_eq!(
        d14[0].chain,
        [
            "core::pipeline::Mfpa::prepare",
            "core::metrics::failure_ratio",
        ],
        "the division two calls below the root must show the route"
    );
    assert!(
        d14[0].message.contains("may be zero"),
        "{:?}",
        d14[0].message
    );

    // Nothing else fires, and every finding names its location.
    assert_eq!(findings.len(), 5, "{findings:#?}");
    for f in &findings {
        assert!(!f.chain.is_empty(), "finding without a chain: {f:#?}");
    }
}

/// The fixture workspace's call graph, pinned as a golden snapshot.
/// Re-bless with `MFPA_BLESS=1 cargo test -p mfpa-lint --test
/// interprocedural` after an intended resolver change.
#[test]
fn fixture_workspace_call_graph_matches_golden() {
    let pretty = mfpa_lint::pretty_json(&build_call_graph(&fixture_ws()).to_json());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/callgraph_ws.json");
    if std::env::var_os("MFPA_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, pretty).expect("write golden");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\nrun `MFPA_BLESS=1 cargo test -p mfpa-lint \
             --test interprocedural` to create it",
            path.display()
        )
    });
    assert_eq!(
        pretty, stored,
        "call graph drifted from tests/golden/callgraph_ws.json — if the \
         change is intended, re-bless with MFPA_BLESS=1 and review the diff"
    );
}

/// Every fixture-workspace finding, suppressed ones included, pinned as
/// `(rule, file, line, chain, suppressed)`. Messages are free to change;
/// which rule fires where, on which route and under which waiver is
/// not. Re-bless with `MFPA_BLESS=1 cargo test -p mfpa-lint --test
/// interprocedural`.
#[test]
fn fixture_workspace_findings_match_golden() {
    let report = lint_files(&fixture_ws());
    let rows: Vec<serde_json::Value> = report
        .findings
        .iter()
        .map(|f| {
            serde_json::json!({
                "rule": f.rule,
                "file": f.file,
                "line": f.line,
                "chain": f.chain,
                "suppressed": f.suppressed,
            })
        })
        .collect();
    let pretty = mfpa_lint::pretty_json(&serde_json::Value::Array(rows));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/findings_ws.json");
    if std::env::var_os("MFPA_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, pretty).expect("write golden");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\nrun `MFPA_BLESS=1 cargo test -p mfpa-lint \
             --test interprocedural` to create it",
            path.display()
        )
    });
    assert_eq!(
        pretty, stored,
        "findings drifted from tests/golden/findings_ws.json — if the \
         change is intended, re-bless with MFPA_BLESS=1 and review the diff"
    );
}

/// `--format json` writes each finding as an object with exactly the
/// keys `rule`, `file`, `line`, `message`, `chain` and `suppressed`,
/// each holding that `Finding` field. A one-file report with a waived
/// finding joins the fixture workspace so a `suppressed` string is
/// pinned as well as `null`.
#[test]
fn json_report_writes_every_finding_field_by_name() {
    let waived = mfpa_lint::lint_source(
        "core",
        "crates/core/src/lib.rs",
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // mfpa-lint: allow(d5, \"test invariant\")\n}\n",
    );
    assert!(waived.iter().any(|f| f.suppressed.is_some()), "{waived:#?}");
    let reports = [
        lint_files(&fixture_ws()),
        mfpa_lint::LintReport {
            findings: waived,
            n_files: 1,
        },
    ];
    for report in &reports {
        let json = report.to_json();
        let rows = json["findings"].as_array().expect("findings array");
        assert_eq!(rows.len(), report.findings.len());
        for (row, f) in rows.iter().zip(&report.findings) {
            let obj = row.as_object().expect("finding object");
            let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                ["chain", "file", "line", "message", "rule", "suppressed"]
            );
            assert_eq!(obj["rule"].as_str(), Some(f.rule.as_str()));
            assert_eq!(obj["file"].as_str(), Some(f.file.as_str()));
            assert_eq!(obj["line"].as_f64(), Some(f64::from(f.line)));
            assert_eq!(obj["message"].as_str(), Some(f.message.as_str()));
            let chain: Vec<&str> = obj["chain"]
                .as_array()
                .expect("chain array")
                .iter()
                .map(|c| c.as_str().expect("chain entry is a string"))
                .collect();
            assert_eq!(chain, f.chain);
            match &f.suppressed {
                Some(reason) => assert_eq!(obj["suppressed"].as_str(), Some(reason.as_str())),
                None => assert!(obj["suppressed"].is_null()),
            }
        }
    }
}

/// The scan runs on the `mfpa_par` pool; graph and report must be
/// bit-identical at every worker count.
#[test]
fn graph_and_report_are_identical_at_one_and_four_workers() {
    let files = fixture_ws();
    let prev = std::env::var(mfpa_par::THREADS_ENV).ok();
    let at = |n: &str| {
        std::env::set_var(mfpa_par::THREADS_ENV, n);
        let graph = mfpa_lint::pretty_json(&build_call_graph(&files).to_json());
        let report = lint_files(&files).to_json().to_string();
        (graph, report)
    };
    let one = at("1");
    let four = at("4");
    match prev {
        Some(v) => std::env::set_var(mfpa_par::THREADS_ENV, v),
        None => std::env::remove_var(mfpa_par::THREADS_ENV),
    }
    assert_eq!(one, four);
}

proptest! {
    /// The parser is total: any byte soup tokenizes and parses without
    /// panicking.
    #[test]
    fn parse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let tokens = mfpa_lint::lexer::tokenize(&src);
        let _ = mfpa_lint::parser::parse(&tokens);
    }

    /// Bias the input toward the parser's state machine: item keywords,
    /// braces, paths and attributes in random order.
    #[test]
    fn parse_never_panics_on_rust_shaped_input(
        parts in prop::collection::vec(0usize..12, 0..96),
    ) {
        const ATOMS: [&str; 12] = [
            "fn ", "impl ", "for ", "use ", "{", "}", "(", ")", "::", ".", "#", "x",
        ];
        let src: String = parts.iter().map(|&i| ATOMS[i]).collect();
        let tokens = mfpa_lint::lexer::tokenize(&src);
        let _ = mfpa_lint::parser::parse(&tokens);
    }

    /// The whole graph pipeline is total over arbitrary file sets.
    #[test]
    fn call_graph_never_panics(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..256), 0..4),
    ) {
        let files: Vec<SourceFile> = chunks
            .iter()
            .enumerate()
            .map(|(i, bytes)| SourceFile {
                crate_name: "core".to_owned(),
                label: format!("crates/core/src/f{i}.rs"),
                text: String::from_utf8_lossy(bytes).into_owned(),
            })
            .collect();
        let _ = build_call_graph(&files);
    }
}
