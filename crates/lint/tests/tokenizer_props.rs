//! The analysis stack is total: any byte sequence (lossily decoded)
//! must flow through the lexer — and the full pipeline behind it
//! (parser, per-function IR, dataflow, value ranges, call graph, codec
//! pairing) — without panicking, including unterminated strings,
//! comments, raw-string hash runs, lone quotes, and closure-, codec-
//! and statement-shaped fragments.

use mfpa_lint::lexer::tokenize;
use mfpa_lint::lint_source;
use proptest::prelude::*;

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
        parts in prop::collection::vec(0usize..19, 0..96),
    ) {
        // Bias toward the dataflow layer's state machines: closure
        // pipes, compound assignment, range loops, slice indexing,
        // codec-vocabulary calls and match arms in random order.
        const ATOMS: [&str; 19] = [
            "fn encode_x(", "fn decode_x(", "w.u32(", "rd.u64()", "|a, b| ",
            "for i in 0..n ", "x[i]", "+= 1.0", "ordered_map(", "map_reduce(",
            "{", "}", ";", ",", "match t ", "=> ", "move |x| -> u32 { ", "=> { ",
            "let (a, b) = ",
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
}
