//! `--fix` mechanics: deleting unused allow lines is exact (used
//! allows survive) and idempotent (fixing fixed text changes nothing).

use mfpa_lint::{lint_files, strip_unused_allow_lines, unused_allow_lines, LintReport, SourceFile};

const LABEL: &str = "crates/core/src/fixed.rs";

fn lint_one(src: &str) -> LintReport {
    let files = [SourceFile {
        crate_name: "core".to_owned(),
        label: LABEL.to_owned(),
        text: src.to_owned(),
    }];
    lint_files(&files)
}

#[test]
fn fix_removes_standalone_and_trailing_unused_allows() {
    let src = "fn used(x: Option<u32>) -> u32 {\n    \
               // mfpa-lint: allow(d5, \"checked by caller\")\n    \
               x.unwrap()\n\
               }\n\
               \n\
               // mfpa-lint: allow(d5, \"stale standalone\")\n\
               fn clean() {} // mfpa-lint: allow(d3, \"stale trailing\")\n";
    let report = lint_one(src);
    let targets = unused_allow_lines(&report);
    let lines = targets.get(LABEL).expect("both stale allows reported");
    assert_eq!(lines.len(), 2, "{:?}", report.findings);

    let fixed = strip_unused_allow_lines(src, lines);
    assert!(fixed.contains("checked by caller"), "used allow survives");
    assert!(!fixed.contains("stale standalone"), "standalone line gone");
    assert!(!fixed.contains("stale trailing"), "trailing comment gone");
    assert!(fixed.contains("fn clean() {}\n"), "code kept: {fixed:?}");

    // Post-fix there is nothing left to fix…
    let report = lint_one(&fixed);
    assert!(
        unused_allow_lines(&report).is_empty(),
        "{:?}",
        report.findings
    );
    // …and re-applying the same deletion set is the identity.
    assert_eq!(strip_unused_allow_lines(&fixed, lines), fixed);
}

#[test]
fn fix_leaves_block_comment_allows_for_a_human() {
    let src = "fn clean() {} /* mfpa-lint: allow(d3, \"stale block\") */\n";
    let report = lint_one(src);
    let targets = unused_allow_lines(&report);
    let lines = targets.get(LABEL).expect("block allow is still reported");
    assert_eq!(strip_unused_allow_lines(src, lines), src);
}

#[test]
fn malformed_allows_are_not_fix_targets() {
    // A reasonless allow is a violation, but deleting it silently would
    // hide a directive someone meant to write.
    let src = "// mfpa-lint: allow(d5)\nfn f() {}\n";
    let report = lint_one(src);
    assert!(!report.is_clean());
    assert!(unused_allow_lines(&report).is_empty());
}
