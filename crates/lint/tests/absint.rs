//! Tests for the value-range layer: interval lattice laws and widening
//! termination (property-tested), guard refinement, interprocedural
//! summaries, and the d13/d14/d15 judgments on small sources.

use std::collections::BTreeMap;

use mfpa_lint::absint::{dimension_of, interpret, type_range, Interval};
use mfpa_lint::lexer::{tokenize, TokenKind};
use mfpa_lint::lint_source;
use mfpa_lint::rules::{Family, Site};
use proptest::prelude::*;

/// One function's d13, d14 and d15 sites.
#[derive(Debug)]
struct Abs {
    d13: Vec<Site>,
    d14: Vec<Site>,
    d15: Vec<Site>,
}

/// Interprets the *last* function in `src` with no call summaries.
fn abs_of(src: &str) -> Abs {
    let tokens = tokenize(src);
    let code: Vec<_> = tokens
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
        .collect();
    let parsed = mfpa_lint::parser::parse(&code);
    let f = parsed.functions.last().expect("fixture declares a fn");
    let ir = mfpa_lint::ir::build(&code, f);
    let sites = interpret(&code, f, &ir, &BTreeMap::new(), false).sites;
    let of = |family| {
        sites
            .iter()
            .filter(|s| s.family == family)
            .cloned()
            .collect()
    };
    Abs {
        d13: of(Family::Counter),
        d14: of(Family::Division),
        d15: of(Family::Units),
    }
}

fn iv(lo: i128, hi: i128) -> Interval {
    Interval::new(lo, hi)
}

proptest! {
    /// `join` is a least upper bound: commutative, idempotent, and
    /// containing both operands.
    #[test]
    fn join_is_an_upper_bound(a in any::<i64>(), b in any::<i64>(), c in any::<i64>(), d in any::<i64>()) {
        let x = iv(a.min(b).into(), a.max(b).into());
        let y = iv(c.min(d).into(), c.max(d).into());
        let j = x.join(&y);
        prop_assert_eq!(j, y.join(&x));
        prop_assert_eq!(x.join(&x), x);
        prop_assert!(j.lo <= x.lo && j.hi >= x.hi);
        prop_assert!(j.lo <= y.lo && j.hi >= y.hi);
    }

    /// `meet` is a greatest lower bound when it exists, and absorption
    /// holds: `a ⊔ (a ⊓ b) = a`.
    #[test]
    fn meet_is_a_lower_bound_with_absorption(a in any::<i64>(), b in any::<i64>(), c in any::<i64>(), d in any::<i64>()) {
        let x = iv(a.min(b).into(), a.max(b).into());
        let y = iv(c.min(d).into(), c.max(d).into());
        prop_assert_eq!(x.meet(&y), y.meet(&x));
        prop_assert_eq!(x.meet(&x), Some(x));
        if let Some(m) = x.meet(&y) {
            prop_assert!(m.lo >= x.lo.max(y.lo) && m.hi <= x.hi.min(y.hi));
            prop_assert_eq!(x.join(&m), x);
        } else {
            // Disjoint: one interval lies strictly past the other.
            prop_assert!(x.hi < y.lo || y.hi < x.lo);
        }
    }

    /// Widening terminates: each bound moves at most once (straight to
    /// the cap), so any widening sequence changes value at most twice.
    #[test]
    fn widening_stabilizes_after_two_moves(
        seed in any::<i64>(),
        steps in prop::collection::vec((any::<i64>(), any::<i64>()), 1..8),
    ) {
        let mut x = Interval::exact(seed.into());
        let mut changes = 0usize;
        for (a, b) in steps {
            let next = x.widen(&iv(a.min(b).into(), a.max(b).into()));
            if next != x {
                changes += 1;
            }
            prop_assert!(next.lo <= x.lo && next.hi >= x.hi, "widening must ascend");
            x = next;
        }
        prop_assert!(changes <= 2, "{changes} changes");
        prop_assert_eq!(x.widen(&x), x);
    }

    /// Arithmetic is sound on singletons: the concrete result is a
    /// member of the abstract one.
    #[test]
    fn singleton_arithmetic_is_exact(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
        let (a, b) = (i128::from(a), i128::from(b));
        prop_assert_eq!(Interval::exact(a).add(&Interval::exact(b)), Interval::exact(a + b));
        prop_assert_eq!(Interval::exact(a).sub(&Interval::exact(b)), Interval::exact(a - b));
        prop_assert_eq!(Interval::exact(a).mul(&Interval::exact(b)), Interval::exact(a * b));
    }
}

#[test]
fn type_ranges_cover_the_integer_menagerie() {
    assert_eq!(type_range("u8"), Some(iv(0, 255)));
    assert_eq!(type_range("i8"), Some(iv(-128, 127)));
    assert_eq!(type_range("u32"), Some(iv(0, u32::MAX.into())));
    assert!(type_range("u64").is_some());
    assert!(type_range("usize").is_some());
    assert_eq!(type_range("f64"), None);
    assert_eq!(type_range("String"), None);
}

#[test]
fn dimension_suffixes_and_prefixes() {
    assert_eq!(dimension_of("uptime_ms"), Some("milliseconds"));
    assert_eq!(dimension_of("age_days"), Some("days"));
    assert_eq!(dimension_of("host_bytes"), Some("bytes"));
    assert_eq!(dimension_of("capacity_gib"), Some("gibibytes"));
    assert_eq!(dimension_of("n_drives"), dimension_of("n_rows"));
    assert_eq!(dimension_of("plain"), None);
}

#[test]
fn unguarded_counter_subtraction_is_d13() {
    let out = abs_of("fn f(poh_days: u64, window_days: u64) -> u64 { poh_days - window_days }");
    assert_eq!(out.d13.len(), 1, "{out:#?}");
    assert!(out.d13[0].what.contains("not proven"), "{:?}", out.d13[0]);
}

#[test]
fn dominating_order_guard_clears_d13() {
    let out = abs_of(
        "fn f(poh_days: u64, window_days: u64) -> u64 {
            if window_days <= poh_days { poh_days - window_days } else { 0 }
        }",
    );
    assert!(out.d13.is_empty(), "{out:#?}");
}

#[test]
fn early_return_guard_clears_d13() {
    let out = abs_of(
        "fn f(poh_days: u64, window_days: u64) -> u64 {
            if window_days > poh_days { return 0; }
            poh_days - window_days
        }",
    );
    assert!(out.d13.is_empty(), "{out:#?}");
}

#[test]
fn saturating_sub_is_never_d13() {
    let out = abs_of(
        "fn f(poh_days: u64, window_days: u64) -> u64 { poh_days.saturating_sub(window_days) }",
    );
    assert!(out.d13.is_empty(), "{out:#?}");
}

#[test]
fn certain_narrowing_overflow_is_d13() {
    let out = abs_of("fn f() -> u8 { let x_count: u8 = 300; x_count }");
    assert_eq!(out.d13.len(), 1, "{out:#?}");
}

#[test]
fn unguarded_integer_denominator_is_d14() {
    let out = abs_of("fn f(err_count: u64, n_reads: u64) -> u64 { err_count / n_reads }");
    assert_eq!(out.d14.len(), 1, "{out:#?}");
    assert!(out.d14[0].what.contains("may be zero"), "{:?}", out.d14[0]);
}

#[test]
fn nonzero_guard_clears_d14() {
    for guard in [
        "if n_reads == 0 { return 0; } err_count / n_reads",
        "if n_reads > 0 { err_count / n_reads } else { 0 }",
        "if n_reads != 0 { err_count / n_reads } else { 0 }",
    ] {
        let out = abs_of(&format!(
            "fn f(err_count: u64, n_reads: u64) -> u64 {{ {guard} }}"
        ));
        assert!(
            out.d14.is_empty(),
            "guard `{guard}` did not clear: {out:#?}"
        );
    }
}

#[test]
fn max_one_floor_clears_d14() {
    let out = abs_of("fn f(err_count: u64, n_reads: u64) -> u64 { err_count / n_reads.max(1) }");
    assert!(out.d14.is_empty(), "{out:#?}");
}

#[test]
fn pure_float_division_is_out_of_d14_scope() {
    let out = abs_of("fn f(z: f64) -> f64 { 1.0 / (1.0 + z) }");
    assert!(out.d14.is_empty(), "{out:#?}");
}

#[test]
fn len_derived_float_denominator_is_d14() {
    let out = abs_of("fn f(xs: &[f64], total: f64) -> f64 { total / xs.len() as f64 }");
    assert_eq!(out.d14.len(), 1, "{out:#?}");
}

#[test]
fn unit_mixing_is_d15_and_conversion_helpers_launder() {
    let out = abs_of("fn f(uptime_ms: u64, age_days: u64) -> u64 { uptime_ms + age_days }");
    assert_eq!(out.d15.len(), 1, "{out:#?}");
    assert!(
        out.d15[0].what.contains("unit mismatch"),
        "{:?}",
        out.d15[0]
    );

    let out =
        abs_of("fn f(uptime_ms: u64, age_days: u64) -> u64 { uptime_ms + days_to_ms(age_days) }");
    assert!(out.d15.is_empty(), "{out:#?}");
}

#[test]
fn same_dimension_arithmetic_is_not_d15() {
    let out = abs_of("fn f(read_ms: u64, write_ms: u64) -> u64 { read_ms + write_ms }");
    assert!(out.d15.is_empty(), "{out:#?}");
}

#[test]
fn loops_terminate_via_widening_and_fuel() {
    // A loop that grows a counter forever must still analyze in finite
    // time, and the widened var must not report a certain overflow.
    let out = abs_of(
        "fn f(n_rows: u64) -> u64 {
            let mut acc_count = 0u64;
            for i in 0..n_rows {
                acc_count += i;
            }
            acc_count
        }",
    );
    assert!(out.d13.is_empty(), "{out:#?}");
}

#[test]
fn callee_summary_proves_denominator_nonzero() {
    // `floor_reads` returns `[1, 2^64)`; the caller's division is
    // provable only through the bottom-up summary.
    let src = "
        pub struct DriveMonitor;
        impl DriveMonitor {
            pub fn ingest(&mut self, err_count: u64, n_reads: u64) -> u64 {
                err_count / floor_reads(n_reads)
            }
        }
        fn floor_reads(n_reads: u64) -> u64 {
            if n_reads == 0 { 1 } else { n_reads }
        }
    ";
    let findings = lint_source("core", "monitor.rs", src);
    assert!(
        !findings.iter().any(|f| f.rule == "d14"),
        "summary should prove the denominator: {findings:#?}"
    );

    // Same shape, but the helper passes zero through: the summary now
    // includes zero and the caller's division fires.
    let src = src.replace("if n_reads == 0 { 1 } else { n_reads }", "n_reads");
    let findings = lint_source("core", "monitor.rs", &src);
    assert!(
        findings.iter().any(|f| f.rule == "d14"),
        "pass-through summary must not prove anything: {findings:#?}"
    );
}

#[test]
fn every_call_line_reads_the_callee_summary() {
    // Two calls to one `-> u64` helper on consecutive lines: each line
    // reads the `[0, 2^64)` summary, so `% 8` proves the second line's
    // cast fits `u8` just as it would on the first.
    let src = "
        fn mix64(z: u64) -> u64 {
            z ^ (z >> 31)
        }
        pub fn flip(seed: u64) -> (u64, u8) {
            let pos = mix64(seed ^ 1) % 16;
            let bit = (mix64(seed ^ 2) % 8) as u8;
            (pos, bit)
        }
    ";
    let findings = lint_source("fleetsim", "crates/fleetsim/src/replay.rs", src);
    assert!(
        !findings.iter().any(|f| f.rule == "d6"),
        "the second call line must read the summary too: {findings:#?}"
    );
}

#[test]
fn interval_display_renders_powers_of_two() {
    assert_eq!(Interval::top().to_string(), "⊤");
    assert_eq!(Interval::exact(7).to_string(), "[7, 7]");
    assert_eq!(iv(0, (1i128 << 64) - 1).to_string(), "[0, 2^64)");
}
