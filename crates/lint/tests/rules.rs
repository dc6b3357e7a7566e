//! One known-bad and one suppressed fixture per catalog rule. The bad
//! snippet must produce exactly one unsuppressed finding for its rule;
//! the suppressed twin must produce zero unsuppressed findings while
//! still recording the allow (so `lint_report.json` counts it).

use mfpa_lint::lint_source;

/// All fixtures are linted as crate `core`, which is in scope for every
/// rule in the catalog (d1 no-par, d2 ordered-output, d3 deterministic,
/// d4/d5 everywhere-in-lib, d6 counter crates).
const CRATE: &str = "core";

fn case(rule: &str, bad: &str, allowed: &str) {
    let findings = lint_source(CRATE, "bad.rs", bad);
    let unsuppressed: Vec<_> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
    assert_eq!(
        unsuppressed.len(),
        1,
        "{rule} bad fixture: expected exactly one unsuppressed finding, got {findings:#?}"
    );
    assert_eq!(unsuppressed[0].rule, rule, "{rule} bad fixture: wrong rule");

    let findings = lint_source(CRATE, "allowed.rs", allowed);
    let unsuppressed: Vec<_> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
    assert!(
        unsuppressed.is_empty(),
        "{rule} allowed fixture: expected no unsuppressed findings, got {unsuppressed:#?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rule && f.suppressed.is_some()),
        "{rule} allowed fixture: the allow must still be recorded as a suppressed finding"
    );
}

#[test]
fn d1_thread_outside_par() {
    case(
        "d1",
        include_str!("fixtures/d1_bad.rs"),
        include_str!("fixtures/d1_allowed.rs"),
    );
}

#[test]
fn d2_unordered_iteration() {
    case(
        "d2",
        include_str!("fixtures/d2_bad.rs"),
        include_str!("fixtures/d2_allowed.rs"),
    );
}

#[test]
fn d3_wall_clock_entropy() {
    case(
        "d3",
        include_str!("fixtures/d3_bad.rs"),
        include_str!("fixtures/d3_allowed.rs"),
    );
}

#[test]
fn d4_partial_float_order() {
    case(
        "d4",
        include_str!("fixtures/d4_bad.rs"),
        include_str!("fixtures/d4_allowed.rs"),
    );
}

#[test]
fn d5_panic_in_library() {
    case(
        "d5",
        include_str!("fixtures/d5_bad.rs"),
        include_str!("fixtures/d5_allowed.rs"),
    );
}

#[test]
fn d6_truncating_cast() {
    case(
        "d6",
        include_str!("fixtures/d6_bad.rs"),
        include_str!("fixtures/d6_allowed.rs"),
    );
}

#[test]
fn d10_float_reduction_order() {
    case(
        "d10",
        include_str!("fixtures/d10_bad.rs"),
        include_str!("fixtures/d10_allowed.rs"),
    );
}

#[test]
fn d11_codec_symmetry() {
    case(
        "d11",
        include_str!("fixtures/d11_bad.rs"),
        include_str!("fixtures/d11_allowed.rs"),
    );
}

#[test]
fn d12_decoder_bounds() {
    case(
        "d12",
        include_str!("fixtures/d12_bad.rs"),
        include_str!("fixtures/d12_allowed.rs"),
    );
}

#[test]
fn d13_unproven_counter_subtraction() {
    case(
        "d13",
        include_str!("fixtures/d13_bad.rs"),
        include_str!("fixtures/d13_allowed.rs"),
    );
}

#[test]
fn d14_unguarded_division() {
    case(
        "d14",
        include_str!("fixtures/d14_bad.rs"),
        include_str!("fixtures/d14_allowed.rs"),
    );
}

#[test]
fn d15_unit_mixing() {
    case(
        "d15",
        include_str!("fixtures/d15_bad.rs"),
        include_str!("fixtures/d15_allowed.rs"),
    );
}

#[test]
fn bench_crate_is_exempt_from_panic_and_timing_rules() {
    let src = include_str!("fixtures/d3_bad.rs");
    assert!(
        lint_source("bench", "bad.rs", src).is_empty(),
        "bench is a CLI harness; timing is allowed there"
    );
    let src = include_str!("fixtures/d5_bad.rs");
    assert!(
        lint_source("bench", "bad.rs", src).is_empty(),
        "bench is a CLI harness; unwrap is allowed there"
    );
}

#[test]
fn d3_shares_the_d9_entropy_vocabulary() {
    // Unreachable from every root, so the entropy fact carries its
    // crate-scoped d3 label — with the same vocabulary d9 uses.
    let src = "pub fn workers() -> usize {\n    std::thread::available_parallelism().map_or(1, |n| n.get())\n}\n";
    let findings = lint_source(CRATE, "bad.rs", src);
    let unsuppressed: Vec<_> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
    assert_eq!(unsuppressed.len(), 1, "{findings:#?}");
    assert_eq!(unsuppressed[0].rule, "d3", "{findings:#?}");
    assert_eq!(unsuppressed[0].line, 2, "{findings:#?}");
}
