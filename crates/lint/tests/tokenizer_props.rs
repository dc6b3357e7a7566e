//! The analysis stack is total: any byte sequence (lossily decoded)
//! must flow through the lexer — and the full pipeline behind it
//! (parser, test excision, per-function IR, dataflow, value ranges,
//! call graph, codec pairing) — without panicking, including
//! unterminated strings, comments, raw-string hash runs, lone quotes,
//! and closure-, codec-, attribute- and statement-shaped fragments.
//! The shared depth-0 scanners stay inside the range they are given on
//! any bracket soup.

use mfpa_lint::lexer::{tokenize, Cursor, Token};
use mfpa_lint::lint_source;
use proptest::prelude::*;

/// A token stream of brackets, angles, separators and words.
fn soup(parts: &[usize]) -> Vec<Token> {
    const ATOMS: [&str; 14] = [
        "(", ")", "[", "]", "{", "}", "<", ">", "->", ",", "&&", "|", "x ", "1 ",
    ];
    tokenize(&parts.iter().map(|&i| ATOMS[i]).collect::<String>())
}

proptest! {
    #[test]
    fn tokenize_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = tokenize(&src);
    }

    #[test]
    fn tokenize_never_panics_on_quote_heavy_input(
        parts in prop::collection::vec(0usize..8, 0..64),
    ) {
        // Bias the input toward the lexer's tricky state machine:
        // quotes, hashes, escapes and comment markers in random order.
        const ATOMS: [&str; 8] = ["\"", "'", "#", "r", "b", "\\", "/*", "//"];
        let src: String = parts.iter().map(|&i| ATOMS[i]).collect();
        let _ = tokenize(&src);
    }

    #[test]
    fn full_pipeline_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // `lint_source` drives every layer: parser item recovery,
        // per-function dataflow (d10–d12 facts), the call graph with
        // decode-root reachability, codec pairing, and emission.
        let src = String::from_utf8_lossy(&bytes);
        let _ = lint_source("core", "crates/core/src/fuzz.rs", &src);
    }

    #[test]
    fn full_pipeline_never_panics_on_closure_and_codec_shaped_input(
        parts in prop::collection::vec(0usize..22, 0..96),
    ) {
        // Bias toward the dataflow layer's state machines: closure
        // pipes, compound assignment, range loops, slice indexing,
        // codec-vocabulary calls and match arms in random order, and
        // toward test excision with test attributes.
        const ATOMS: [&str; 22] = [
            "fn encode_x(", "fn decode_x(", "w.u32(", "rd.u64()", "|a, b| ",
            "for i in 0..n ", "x[i]", "+= 1.0", "ordered_map(", "map_reduce(",
            "{", "}", ";", ",", "match t ", "=> ", "move |x| -> u32 { ", "=> { ",
            "let (a, b) = ", "#[cfg(test)] ", "#![cfg(test)]", "#[test] ",
        ];
        let src: String = parts.iter().map(|&i| ATOMS[i]).collect();
        let _ = lint_source("core", "crates/core/src/fuzz.rs", &src);
    }

    #[test]
    fn full_pipeline_never_panics_on_arithmetic_shaped_input(
        parts in prop::collection::vec(0usize..23, 0..96),
    ) {
        // Bias toward the value-range interpreter's state machines:
        // guards, counter arithmetic, casts, shifts, unit-suffixed
        // idents, loops and early returns in random order.
        const ATOMS: [&str; 23] = [
            "fn ingest(", "poh_days: u64", "window_days", "if ", "<= ",
            "== 0 ", "return 0; ", "else ", "- ", "/ ",
            "as u32", "as f64", "<< ", ".max(1)", ".len()",
            "uptime_ms", "let mut n_count = ", "while ", "loop ", "break; ",
            "else if ", "while let Some(x) = ", "unsafe { ",
        ];
        let src: String = parts.iter().map(|&i| ATOMS[i]).collect();
        let _ = lint_source("core", "crates/core/src/fuzz.rs", &src);
    }

    #[test]
    fn depth0_scans_stay_in_range(
        parts in prop::collection::vec(0usize..14, 0..64),
        a in 0usize..80,
        b in 0usize..80,
        span_end in 0usize..80,
        types in any::<bool>(),
        stop_at in 0usize..4,
    ) {
        let code = soup(&parts);
        let (from, end) = (a.min(b), a.max(b));
        // The cursor's own span may end before the scanned range.
        let mut cur = Cursor::new(&code, 0..span_end);
        if types {
            cur = cur.types();
        }
        let stop = |k: usize| cur.punct(k, [',', '|', ')', '>'][stop_at]);
        let k = cur.depth0(from, end, stop);
        prop_assert!(from <= k && k <= end, "{from}..{end} gave {k}");
        prop_assert!(k == end || stop(k));

        for sep in [",", "&&"] {
            // Every end of the range, so a two-token separator that
            // straddles it is met too.
            for end in from..=end {
                let parts = cur.split0(from..end, sep);
                prop_assert_eq!(parts.first().map(|p| p.start), Some(from));
                prop_assert_eq!(parts.last().map(|p| p.end), Some(end));
                for p in &parts {
                    prop_assert!(p.start <= p.end, "{:?}", parts);
                }
                for w in parts.windows(2) {
                    // Consecutive parts sit one separator apart, and
                    // that separator is really there.
                    prop_assert_eq!(w[1].start, w[0].end + sep.len());
                    for (d, c) in sep.chars().enumerate() {
                        prop_assert!(cur.punct(w[0].end + d, c));
                    }
                }
            }
        }
    }
}
