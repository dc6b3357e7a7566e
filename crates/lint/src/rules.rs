//! The DESIGN §6 / §8 rule catalog, suppression parsing, test-code
//! excision, and the token-pattern scanner for d1, d4 and d6.
//!
//! Every other rule comes from a semantic layer ([`crate::taint`],
//! [`crate::dataflow`], [`crate::absint`]). The scan is test-aware:
//! `#[cfg(test)]` items and `#[test]` functions are excised before any
//! rule runs, because the contract governs *shipping* code — tests may
//! unwrap and time things freely.

use crate::lexer::{Cursor, Token, TokenKind};

/// A catalog entry: stable id, human name, and the contract clause the
/// rule enforces (mirrored in DESIGN.md §8).
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id used in findings and `allow(...)` suppressions.
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// What the rule forbids.
    pub summary: &'static str,
    /// Crates the rule applies to (crate dir names; `suite` is the
    /// workspace root package). Reachability-scoped rules carry an
    /// empty crate scope: their domain is reachability, not directories.
    pub scope: &'static [&'static str],
}

const LIB_CRATES: &[&str] = &[
    "telemetry",
    "fleetsim",
    "dataset",
    "ml",
    "core",
    "par",
    "bytes",
    "lint",
    "suite",
];
const DETERMINISTIC: &[&str] = &[
    "telemetry",
    "fleetsim",
    "dataset",
    "ml",
    "core",
    "par",
    "bytes",
];
const ORDERED_OUTPUT: &[&str] = &["fleetsim", "core", "ml", "dataset"];
const EVERYWHERE: &[&str] = &[
    "telemetry",
    "fleetsim",
    "dataset",
    "ml",
    "core",
    "par",
    "bytes",
    "bench",
    "lint",
    "suite",
];
const NO_PAR: &[&str] = &[
    "telemetry",
    "fleetsim",
    "dataset",
    "ml",
    "core",
    "bytes",
    "bench",
    "lint",
    "suite",
];
const COUNTER_CRATES: &[&str] = &["telemetry", "fleetsim", "dataset", "ml", "core", "bytes"];

/// The contract rules, in catalog order. d1–d6 are scoped by crate
/// directory; d7–d9 are scoped by reachability and carry the full
/// `root → … → sink` call chain. d2/d5/d3 and d7/d8/d9 are the two
/// labels of one detector each ([`crate::taint`]): the same fact is a
/// d7/d8/d9 finding in a function reachable from a deterministic root
/// and a d2/d5/d3 finding everywhere else.
pub const RULES: &[Rule] = &[
    Rule {
        id: "d1",
        name: "thread-outside-par",
        summary: "thread spawning (`std::thread::spawn`/`scope`, rayon) outside crates/par",
        scope: NO_PAR,
    },
    Rule {
        id: "d2",
        name: "unordered-iteration",
        summary: "a value derived from `HashMap`/`HashSet` iteration escapes a function \
                  in a crate feeding ordered/serialized output (lookup-only maps are \
                  machine-verified clean; use `BTreeMap`/`BTreeSet` or collect-and-sort)",
        scope: ORDERED_OUTPUT,
    },
    Rule {
        id: "d3",
        name: "wall-clock-entropy",
        summary: "`Instant`/`SystemTime` values escaping timing metadata, or entropy \
                  sources, in deterministic crates (elapsed-into-timing-fields is \
                  machine-verified clean)",
        scope: DETERMINISTIC,
    },
    Rule {
        id: "d4",
        name: "partial-float-order",
        summary: "`partial_cmp` on floats (NaN-unsafe ordering; use `total_cmp`)",
        scope: EVERYWHERE,
    },
    Rule {
        id: "d5",
        name: "panic-in-library",
        summary: "`unwrap()`/`expect()`/`panic!` in non-test library code \
                  (return structured errors instead)",
        scope: LIB_CRATES,
    },
    Rule {
        id: "d6",
        name: "truncating-cast",
        summary: "truncating `as` cast to a narrow integer on a counter/timestamp value",
        scope: COUNTER_CRATES,
    },
    Rule {
        id: "d7",
        name: "unordered-iteration-taint",
        summary: "a value derived from `HashMap`/`HashSet` iteration flows out of a \
                  function reachable from a deterministic root (ordered output, \
                  scores and serialized reports must not observe hash order)",
        scope: &[],
    },
    Rule {
        id: "d8",
        name: "panic-reachable",
        summary: "`unwrap()`/`expect()`/`panic!` in a function reachable from a \
                  deterministic root, in any crate",
        scope: &[],
    },
    Rule {
        id: "d9",
        name: "clock-entropy-taint",
        summary: "`Instant`/`SystemTime`/entropy/thread-id-derived values reaching \
                  code on a path from a deterministic root to model inputs \
                  (elapsed-into-timing-fields is machine-verified clean)",
        scope: &[],
    },
    Rule {
        id: "d10",
        name: "float-reduction-order",
        summary: "order-sensitive float accumulation (`+=`, `x = x + …`, running \
                  means) into a variable captured by a closure passed to an \
                  mfpa-par combinator — the per-item path runs in scheduling \
                  order; fold in `map_reduce`'s serial stage instead",
        scope: EVERYWHERE,
    },
    Rule {
        id: "d11",
        name: "codec-symmetry",
        summary: "a hand-rolled encoder/decoder pair (`put_X`/`get_X`, \
                  `encode`/`decode`, `to_bytes`/`from_bytes`) whose write and \
                  read sequences diverge in field width or order, or a codec \
                  root with no opposite-side partner in its file",
        scope: EVERYWHERE,
    },
    Rule {
        id: "d12",
        name: "decoder-bounds",
        summary: "slice indexing reachable from a decoder root \
                  (`checkpoint::restore`, `CompiledEnsemble::from_bytes`) with \
                  no dominating length guard on the same value chain — \
                  corrupted input must be refused, never allowed to panic",
        scope: &[],
    },
    Rule {
        id: "d13",
        name: "counter-arithmetic",
        summary: "counter arithmetic reachable from a deterministic root that the \
                  value-range analysis cannot prove safe: `a - b` where `b ≤ a` is \
                  unproven, `+`/`*`/`<<` whose result interval provably exceeds the \
                  target width, and `as` casts proven to truncate (interval-clean \
                  casts demote the lexical d6 heuristic)",
        scope: &[],
    },
    Rule {
        id: "d14",
        name: "unguarded-division",
        summary: "`/` or `%` reachable from a deterministic root whose denominator \
                  interval includes 0 and is not dominated by a nonzero guard or \
                  structured-error return (metrics ratios must not NaN/panic on \
                  empty shards)",
        scope: &[],
    },
    Rule {
        id: "d15",
        name: "unit-mixing",
        summary: "`+`/`-`/comparison between values of different inferred units \
                  (`_ms`, `_days`, `_bytes`, `_gib`, `_ratio`, `wall_*`, `n_*`) \
                  reachable from a deterministic root, without a named conversion \
                  helper on the path",
        scope: &[],
    },
];

/// Looks up a catalog rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// Whether `rule` applies to the crate a file belongs to.
pub fn in_scope(rule: &Rule, crate_name: &str) -> bool {
    rule.scope.contains(&crate_name)
}

/// A rule hit before suppression matching.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Catalog rule id, or `lint` for meta findings (malformed/unused
    /// suppressions).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the hit.
    pub message: String,
}

/// A parsed `// mfpa-lint: allow(rule, "reason")` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Suppressed rule id.
    pub rule: String,
    /// Mandatory justification.
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Trailing comments cover their own line; standalone comments
    /// cover the next line (stacking with adjacent standalone allows).
    pub standalone: bool,
}

/// Marker scanned for inside comments.
pub const SUPPRESS_MARKER: &str = "mfpa-lint:";

/// Removes `#[cfg(test)]` items, `#[test]` functions, and scopes gated
/// by an inner `#![cfg(test)]` attribute from the token stream
/// (comments inside removed items vanish with them).
pub fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let cur = Cursor::new(tokens, 0..tokens.len());
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if is_attr_start(tokens, i) {
            let attr = read_attr(cur, i);
            if attr.is_test {
                // An inner `#![cfg(test)]` gates the rest of its
                // enclosing scope: the whole file at top level, or the
                // remainder of the `{ ... }` block it opens (whose
                // closer stays).
                i = if attr.inner {
                    cur.depth0(attr.end, cur.end, |k| cur.punct(k, '}'))
                } else {
                    skip_item(cur, attr.end)
                };
                continue;
            }
            out.extend_from_slice(&tokens[i..attr.end]);
            i = attr.end;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

fn is_attr_start(tokens: &[Token], i: usize) -> bool {
    if !matches!(tokens.get(i).map(|t| &t.kind), Some(TokenKind::Punct('#'))) {
        return false;
    }
    match next_code(tokens, i + 1).map(|j| &tokens[j].kind) {
        Some(TokenKind::Punct('[')) => true,
        // Inner attribute `#![...]`.
        Some(TokenKind::Punct('!')) => {
            let Some(j) = next_code(tokens, i + 1) else {
                return false;
            };
            matches!(
                next_code(tokens, j + 1).map(|k| &tokens[k].kind),
                Some(TokenKind::Punct('['))
            )
        }
        _ => false,
    }
}

/// First non-comment token index at or after `i`.
fn next_code(tokens: &[Token], mut i: usize) -> Option<usize> {
    while i < tokens.len() {
        if !matches!(tokens[i].kind, TokenKind::Comment { .. }) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// A parsed attribute: where it ends, whether it gates test-only code,
/// and whether it is an inner (`#![...]`) attribute.
struct Attr {
    end: usize,
    is_test: bool,
    inner: bool,
}

/// Reads an attribute starting at the `#` token; returns the index one
/// past its closing `]`, whether it gates test-only code, and whether
/// it is an inner attribute.
fn read_attr(cur: Cursor<'_>, start: usize) -> Attr {
    let open = (start + 1..cur.end)
        .find(|&k| cur.punct(k, '['))
        .unwrap_or(cur.end);
    let end = cur.skip_group(open, '[', ']');
    let idents: Vec<&str> = (open..end).filter_map(|k| cur.ident(k)).collect();
    let has = |w: &str| idents.contains(&w);
    let is_test = (idents.as_slice() == ["test"]) || (has("cfg") && has("test") && !has("not"));
    Attr {
        end,
        is_test,
        inner: (start + 1..open).any(|k| cur.punct(k, '!')),
    }
}

/// Skips one item following a test attribute: any further attributes,
/// then either a `{ ... }` body (with matching brace) or a `;`.
fn skip_item(cur: Cursor<'_>, mut i: usize) -> usize {
    while let Some(j) = next_code(cur.code, i).filter(|&j| is_attr_start(cur.code, j)) {
        i = read_attr(cur, j).end;
    }
    let k = cur.depth0(i, cur.end, |k| {
        cur.punct(k, ';') || cur.punct(k, '{') || cur.punct(k, '}')
    });
    let close = if cur.punct(k, '{') {
        cur.depth0(k + 1, cur.end, |j| cur.punct(j, '}'))
    } else {
        k
    };
    (close + 1).min(cur.end)
}

/// Extracts suppression comments. Malformed suppressions (unknown
/// rule, missing or empty reason) become unsuppressible meta findings.
pub fn extract_suppressions(tokens: &[Token]) -> (Vec<Suppression>, Vec<RawFinding>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for t in tokens {
        let TokenKind::Comment { text, trailing } = &t.kind else {
            continue;
        };
        // Doc comments never suppress: the marker must sit in a plain
        // `//` or `/* */` comment, so documentation can *mention* the
        // syntax without activating it.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        if text.starts_with("/**") || text.starts_with("/*!") {
            continue;
        }
        let Some(pos) = text.find(SUPPRESS_MARKER) else {
            continue;
        };
        // Block comments keep their `*/` terminator in the token text.
        let rest = &text[pos + SUPPRESS_MARKER.len()..];
        let directive = rest.strip_suffix("*/").unwrap_or(rest).trim();
        match parse_allow(directive) {
            Ok((rule, reason)) => allows.push(Suppression {
                rule,
                reason,
                line: t.line,
                standalone: !trailing,
            }),
            Err(why) => malformed.push(RawFinding {
                rule: "lint",
                line: t.line,
                message: format!("malformed suppression: {why}"),
            }),
        }
    }
    (allows, malformed)
}

/// Parses `allow(rule, "reason")`.
fn parse_allow(directive: &str) -> Result<(String, String), String> {
    let rest = directive
        .strip_prefix("allow")
        .ok_or("expected `allow(rule, \"reason\")`")?
        .trim_start();
    let inner = rest
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or("expected parenthesized `allow(rule, \"reason\")`")?;
    let (rule, reason_part) = inner
        .split_once(',')
        .ok_or("a suppression must carry a reason: `allow(rule, \"reason\")`")?;
    let rule = rule.trim().to_owned();
    if rule_by_id(&rule).is_none() {
        return Err(format!("unknown rule id `{rule}`"));
    }
    let reason = reason_part.trim();
    let reason = reason
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(reason)
        .trim();
    if reason.is_empty() {
        return Err("empty reason".into());
    }
    Ok((rule, reason.to_owned()))
}

const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
const COUNTER_WORDS: &[&str] = &[
    "day",
    "days",
    "time",
    "ts",
    "timestamp",
    "hour",
    "hours",
    "count",
    "counts",
    "counter",
    "counters",
    "cycle",
    "cycles",
    "write",
    "writes",
    "read",
    "reads",
    "lba",
    "byte",
    "bytes",
    "serial",
    "seed",
    "epoch",
    "record",
    "records",
    "poh",
];

pub(crate) fn is_counterish(ident: &str) -> bool {
    ident
        .split('_')
        .any(|seg| COUNTER_WORDS.contains(&seg.to_ascii_lowercase().as_str()))
}

/// Runs the in-scope token-pattern rules (d1, d4, d6) over a
/// comment-free token stream.
pub fn scan_rules(crate_name: &str, code: &[Token]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    let on = |id: &str| rule_by_id(id).is_some_and(|r| in_scope(r, crate_name));
    let cur = Cursor::new(code, 0..code.len());

    for i in 0..code.len() {
        let line = code[i].line;
        let Some(word) = cur.ident(i) else {
            continue;
        };
        match word {
            "rayon" if on("d1") => findings.push(RawFinding {
                rule: "d1",
                line,
                message: "rayon is forbidden; use mfpa_par's deterministic primitives".into(),
            }),
            "spawn" | "scope" if on("d1") => {
                let path_form = i >= 3
                    && cur.punct(i - 1, ':')
                    && cur.punct(i - 2, ':')
                    && cur.ident(i - 3) == Some("thread");
                let method_form =
                    word == "spawn" && i >= 1 && cur.punct(i - 1, '.') && cur.punct(i + 1, '(');
                if path_form || method_form {
                    findings.push(RawFinding {
                        rule: "d1",
                        line,
                        message: format!(
                            "thread {word} outside crates/par; route work through \
                             mfpa_par::ordered_map/map_reduce"
                        ),
                    });
                }
            }
            "partial_cmp" if on("d4") => findings.push(RawFinding {
                rule: "d4",
                line,
                message: "partial_cmp is NaN-unsafe; use f64::total_cmp (or derive Ord)".into(),
            }),
            "as" if on("d6") => {
                let Some(ty) = cur.ident(i + 1) else { continue };
                if !NARROW_INTS.contains(&ty) {
                    continue;
                }
                // Heuristic: any counter/timestamp-named identifier
                // earlier on the same line marks the cast suspicious.
                let culprit = (0..i)
                    .rev()
                    .take_while(|&j| code[j].line == line)
                    .find_map(|j| cur.ident(j).filter(|s| is_counterish(s)));
                if let Some(name) = culprit {
                    findings.push(RawFinding {
                        rule: "d6",
                        line,
                        message: format!(
                            "truncating cast `as {ty}` near counter/timestamp `{name}`; \
                             widen or bound-check explicitly"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    findings
}
