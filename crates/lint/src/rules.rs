//! The DESIGN §6 / §8 rule catalog, the routing table that turns each
//! fact family into a rule, suppression parsing, test-code excision,
//! and the token-pattern scanner for d1 and d4.
//!
//! Every other fact comes from a semantic layer ([`crate::taint`],
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
/// labels of one fact family each ([`Family::route`]): the same fact
/// is a d7/d8/d9 finding in a function reachable from a deterministic
/// root and a d2/d5/d3 finding everywhere else.
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
        summary: "`as` cast to a narrow integer near a counter/timestamp name whose \
                  operand interval is not proven to fit",
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
                  target width, and `as` casts proven to truncate (an \
                  interval-clean cast is not d6 either)",
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

/// Whether rule `id` applies to a file of crate `crate_name`: a
/// reachability-scoped rule (empty crate scope) applies everywhere,
/// any other rule only inside its crate scope.
pub fn applies(id: &str, crate_name: &str) -> bool {
    rule_by_id(id).is_some_and(|r| r.scope.is_empty() || r.scope.contains(&crate_name))
}

/// The kind of fact a site records. Every pass tags its sites with a
/// family; [`Family::route`] alone decides which rule a family becomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Thread spawning or rayon outside `mfpa_par` (lexical).
    Thread,
    /// `partial_cmp` (lexical).
    PartialCmp,
    /// A narrow cast near a counter name whose operand the value-range
    /// analysis cannot judge.
    Cast,
    /// A narrow cast near a counter name that provably truncates.
    TruncatingCast,
    /// Unordered-container iteration that can observe hash order.
    Unordered,
    /// A panic site.
    Panic,
    /// A clock value escaping timing metadata.
    Clock,
    /// An entropy source.
    Entropy,
    /// Order-sensitive float accumulation captured by a par closure.
    ParAccum,
    /// An encoder/decoder pair that does not mirror, or has no partner.
    Codec,
    /// Slice indexing with no dominating length guard.
    Index,
    /// Unproven counter subtraction, or proven overflow or truncation.
    Counter,
    /// A denominator that may be zero.
    Division,
    /// Arithmetic or comparison across two inferred units.
    Units,
}

/// The root set a family's reachability is judged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Roots {
    /// Not routed by reachability: the site takes its `otherwise` label.
    None,
    /// `ROOT_SPECS`, the deterministic roots.
    Deterministic,
    /// `DECODE_ROOT_SPECS`, the decoder roots.
    Decoder,
}

/// How a family becomes a finding. A site in a function reachable
/// from the family's roots takes the `reached` label and the shortest
/// root chain; any other site takes the `otherwise` label, chained to
/// its enclosing function. `None` drops the site. A label fires only
/// where [`applies`] holds.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    /// The roots reachability is judged against.
    pub roots: Roots,
    /// The label inside the reachable perimeter.
    pub reached: Option<&'static str>,
    /// The label everywhere else.
    pub otherwise: Option<&'static str>,
}

impl Family {
    /// The routing table: the one place a fact is given its rule.
    pub fn route(self) -> Route {
        use Family::*;
        use Roots::{Decoder, Deterministic};
        let (roots, reached, otherwise) = match self {
            Thread => (Roots::None, None, Some("d1")),
            PartialCmp => (Roots::None, None, Some("d4")),
            Cast => (Roots::None, None, Some("d6")),
            // Reachable, the d13 site for the same cast reports it.
            TruncatingCast => (Deterministic, None, Some("d6")),
            Unordered => (Deterministic, Some("d7"), Some("d2")),
            Panic => (Deterministic, Some("d8"), Some("d5")),
            Clock | Entropy => (Deterministic, Some("d9"), Some("d3")),
            ParAccum => (Deterministic, Some("d10"), Some("d10")),
            Codec => (Roots::None, None, Some("d11")),
            Index => (Decoder, Some("d12"), None),
            Counter => (Deterministic, Some("d13"), None),
            Division => (Deterministic, Some("d14"), None),
            Units => (Deterministic, Some("d15"), None),
        };
        Route {
            roots,
            reached,
            otherwise,
        }
    }
}

/// One fact site, tagged with its family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// What kind of fact this is.
    pub family: Family,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the hit.
    pub what: String,
    /// A second function of the same file the finding names (the
    /// decoder of a d11 pair), by index in the file's function list;
    /// its name ends the chain.
    pub pair: Option<usize>,
}

impl Site {
    /// A site naming no second function.
    pub fn new(family: Family, line: u32, what: String) -> Site {
        Site {
            family,
            line,
            what,
            pair: None,
        }
    }
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
/// rule, missing or empty reason) come back as `(line, message)` for
/// unsuppressible meta findings.
pub fn extract_suppressions(tokens: &[Token]) -> (Vec<Suppression>, Vec<(u32, String)>) {
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
            Err(why) => malformed.push((t.line, format!("malformed suppression: {why}"))),
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

/// Whether a snake-case segment of `ident` is a counter/timestamp word.
pub(crate) fn is_counterish(ident: &str) -> bool {
    has_segment(ident, COUNTER_WORDS)
}

/// Whether a snake-case segment of `ident`, lowercased, is in `words`.
pub(crate) fn has_segment(ident: &str, words: &[&str]) -> bool {
    ident
        .split('_')
        .any(|seg| words.contains(&seg.to_ascii_lowercase().as_str()))
}

/// The token-pattern sites of a comment-free token stream: thread
/// spawning and `partial_cmp`.
pub fn scan_rules(code: &[Token]) -> Vec<Site> {
    let cur = Cursor::new(code, 0..code.len());
    let mut sites = Vec::new();
    for (i, t) in code.iter().enumerate() {
        let site = |family, what: &str| Site::new(family, t.line, what.to_owned());
        match cur.ident(i) {
            Some("rayon") => sites.push(site(
                Family::Thread,
                "rayon is forbidden; use mfpa_par's deterministic primitives",
            )),
            Some(word @ ("spawn" | "scope")) => {
                let path_form = i >= 3
                    && cur.punct(i - 1, ':')
                    && cur.punct(i - 2, ':')
                    && cur.ident(i - 3) == Some("thread");
                let method_form =
                    word == "spawn" && i >= 1 && cur.punct(i - 1, '.') && cur.punct(i + 1, '(');
                if path_form || method_form {
                    sites.push(site(
                        Family::Thread,
                        &format!(
                            "thread {word} outside crates/par; route work through \
                             mfpa_par::ordered_map/map_reduce"
                        ),
                    ));
                }
            }
            Some("partial_cmp") => sites.push(site(
                Family::PartialCmp,
                "partial_cmp is NaN-unsafe; use f64::total_cmp (or derive Ord)",
            )),
            _ => {}
        }
    }
    sites
}
