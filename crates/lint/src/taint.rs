//! Intra-function fact extraction for the interprocedural rules.
//!
//! For every parsed function this pass computes `FnFacts`: the lines
//! where a determinism-relevant value is created and *escapes*. It is
//! the only detector for these facts; the call graph decides their
//! label — facts inside functions reachable from a deterministic root
//! become d7/d8/d9 findings with a call chain; facts in unreachable
//! functions become the crate-scoped d2/d5/d3 findings.
//!
//! The analysis is deliberately conservative in the safe direction:
//!
//! - **unordered iteration** (d7/d2): a `HashMap`/`HashSet` local,
//!   parameter or `self` field is clean while only lookup methods
//!   touch it. Iterating it (`iter`, `keys`, `values`, `drain`, a
//!   `for` loop) is clean only when the chain provably cannot observe
//!   hash order: an order-insensitive terminal (`count`, `any`,
//!   `max_by_key`, …), a `collect::<BTree…>()`, or a collect whose
//!   binding is later sorted. `sum()` is *not* order-insensitive:
//!   float addition does not associate. Everything else escapes.
//! - **clock values** (d9/d3): `let t = Instant::now()` is clean when
//!   every later use of `t` is `t.elapsed()` assigned into a
//!   timing-named target (`*_secs`, `duration`, …). Any other use —
//!   passing `t` onward, binding `now()` into a non-timing slot —
//!   escapes.
//! - **entropy** (d9/d3): `thread_rng`, `from_entropy`, `random()`,
//!   `thread::current`, `available_parallelism` are always sites; the
//!   contract requires explicit seeding and pinned thread counts.
//! - **panics** (d8/d5): `.unwrap()` / `.expect()` / `panic!`-family
//!   macros.

use crate::lexer::{Cursor, Token, TokenKind};
use crate::parser::FnItem;
use std::collections::BTreeSet;
use std::ops::Range;

/// One fact site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of what escapes.
    pub what: String,
}

/// Determinism-relevant facts for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnFacts {
    /// Unordered-container iteration whose result can observe hash
    /// order (d7 when reachable, d2 otherwise).
    pub unordered_sites: Vec<Site>,
    /// Clock values escaping timing metadata (d9 / d3).
    pub clock_sites: Vec<Site>,
    /// Entropy sources (d9 when reachable, d3 otherwise).
    pub entropy_sites: Vec<Site>,
    /// Panic sites (d8 when reachable, d5 otherwise).
    pub panic_sites: Vec<Site>,
}

/// Iterator-producing methods on unordered containers.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_keys",
    "into_values",
];

/// Terminal adapters that cannot observe element order. `sum` and
/// `fold` are deliberately absent: float accumulation is
/// order-sensitive.
const CLEAN_TERMINALS: &[&str] = &[
    "count",
    "len",
    "is_empty",
    "any",
    "all",
    "max",
    "min",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
];

/// Identifier segments that mark an assignment target as timing
/// metadata (diagnostics, not model input).
const TIMING_WORDS: &[&str] = &[
    "sec", "secs", "ms", "millis", "micros", "nanos", "time", "timing", "timings", "elapsed",
    "duration", "wall",
];

/// Always-flagged entropy sources.
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "available_parallelism"];

/// Computes the facts for one function over the same comment-free
/// token stream the parser consumed. Total: never panics.
pub fn analyze_fn(code: &[Token], f: &FnItem, unordered_fields: &BTreeSet<String>) -> FnFacts {
    let cur = Cursor::new(code, f.body.clone());
    let a = Analyzer {
        cur,
        unordered_fields,
        unordered_locals: collect_unordered_locals(cur, &f.sig),
    };
    let mut facts = FnFacts::default();
    a.unordered(&mut facts);
    a.clocks(&mut facts);
    a.entropy_and_panics(&mut facts);
    facts
}

struct Analyzer<'a> {
    cur: Cursor<'a>,
    unordered_fields: &'a BTreeSet<String>,
    unordered_locals: BTreeSet<String>,
}

fn is_unordered_type(word: &str) -> bool {
    word == "HashMap" || word == "HashSet"
}

/// Unordered locals: parameters in `sig` and `let` bindings in the
/// cursor's body whose declared type or initializer mentions
/// `HashMap`/`HashSet`.
fn collect_unordered_locals(cur: Cursor<'_>, sig: &Range<usize>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    // Parameters: `name: ...HashMap...` up to a depth-0 comma.
    let mut i = sig.start;
    while i < sig.end {
        if let Some(name) = cur.ident(i) {
            if cur.punct(i + 1, ':') && !cur.punct(i + 2, ':') {
                let mut depth = 0usize;
                let mut k = i + 2;
                let mut unordered = false;
                while k < sig.end {
                    match cur.kind(k) {
                        Some(TokenKind::Punct('<' | '(' | '[')) => depth += 1,
                        // A depth-0 `)` closes the parameter list: stop so
                        // the return type cannot taint the last parameter.
                        Some(TokenKind::Punct(')')) if depth == 0 => break,
                        Some(TokenKind::Punct('>' | ')' | ']')) => depth = depth.saturating_sub(1),
                        Some(TokenKind::Punct(',')) if depth == 0 => break,
                        Some(TokenKind::Ident(s)) if is_unordered_type(s) => unordered = true,
                        _ => {}
                    }
                    k += 1;
                }
                if unordered {
                    out.insert(name.to_owned());
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    // Let bindings: `let [mut] name ... = ...HashMap...;`
    let mut i = cur.start;
    while i < cur.end {
        if cur.ident(i) == Some("let") {
            let mut j = i + 1;
            if cur.ident(j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = cur.ident(j) {
                let mut k = j + 1;
                let mut unordered = false;
                while k < cur.end && !cur.punct(k, ';') {
                    if cur.ident(k).is_some_and(is_unordered_type) {
                        unordered = true;
                    }
                    k += 1;
                }
                if unordered {
                    out.insert(name.to_owned());
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    out
}

impl Analyzer<'_> {
    /// Whether a statement assigns into a timing-named target: an `=`
    /// (excluding `==`/`<=`/`>=`/`!=`) whose left side names an
    /// identifier with a timing word among its snake segments.
    fn assigns_to_timing_target(&self, stmt: &Range<usize>) -> bool {
        for k in stmt.clone() {
            if !self.cur.punct(k, '=') || self.cur.punct(k + 1, '=') {
                continue;
            }
            if k > stmt.start {
                if let Some(TokenKind::Punct(p)) = self.cur.kind(k - 1) {
                    if matches!(p, '=' | '<' | '>' | '!') {
                        continue;
                    }
                }
            }
            return (stmt.start..k).any(|j| {
                self.cur.ident(j).is_some_and(|name| {
                    name.split('_')
                        .any(|seg| TIMING_WORDS.contains(&seg.to_ascii_lowercase().as_str()))
                })
            });
        }
        false
    }

    /// d7/d2: unordered-container iteration that can observe hash
    /// order.
    fn unordered(&self, facts: &mut FnFacts) {
        let mut i = self.cur.start;
        while i < self.cur.end {
            // `recv.iter()`-family chain heads.
            if let Some(m) = self.cur.ident(i) {
                if ITER_METHODS.contains(&m) && i >= 1 && self.cur.punct(i - 1, '.') {
                    if let Some(recv) = self.receiver_name(i) {
                        if self.is_unordered(&recv) {
                            if let Some(what) = self.chain_escapes(i, &recv, m) {
                                facts.unordered_sites.push(Site {
                                    line: self.cur.line(i),
                                    what,
                                });
                            }
                        }
                    }
                }
                // Bare `for x in map` / `for x in &map { ... }`.
                if m == "for" {
                    if let Some((line, recv)) = self.bare_for_source(i) {
                        if self.is_unordered(&recv) {
                            facts.unordered_sites.push(Site {
                                line,
                                what: format!(
                                    "`for` loop iterates unordered `{recv}` directly; hash \
                                     order is observable"
                                ),
                            });
                        }
                    }
                }
            }
            i += 1;
        }
    }

    /// Whether `name` (a local, parameter, or `self.field` field name)
    /// is an unordered container.
    fn is_unordered(&self, name: &str) -> bool {
        if let Some(field) = name.strip_prefix("self.") {
            return self.unordered_fields.contains(field);
        }
        self.unordered_locals.contains(name)
    }

    /// The receiver of a method call at `at` (index of the method
    /// name, preceded by `.`): `map.iter()` → `map`, `self.field.
    /// iter()` → `self.field`. `None` for computed receivers
    /// (`f().iter()`), which this pass cannot type.
    fn receiver_name(&self, at: usize) -> Option<String> {
        if at < 2 {
            return None;
        }
        let first = self.cur.ident(at - 2)?;
        if at >= 4 && self.cur.punct(at - 3, '.') && self.cur.ident(at - 4) == Some("self") {
            return Some(format!("self.{first}"));
        }
        // A plain identifier receiver must not itself be a field of
        // something else (`other.map.iter()`).
        if at >= 3 && self.cur.punct(at - 3, '.') {
            return None;
        }
        Some(first.to_owned())
    }

    /// Whether the iterator chain headed by the method at `head` can
    /// observe hash order; returns the finding message when it can.
    fn chain_escapes(&self, head: usize, recv: &str, method: &str) -> Option<String> {
        // Walk `.m1(..).m2::<T>(..)...`, recording method names.
        let mut chain: Vec<(String, usize)> = vec![(method.to_owned(), head)];
        let mut i = head + 1;
        loop {
            if self.cur.punct(i, ':') && self.cur.punct(i + 1, ':') && self.cur.punct(i + 2, '<') {
                i = self.cur.skip_angles(i + 2);
            }
            if self.cur.punct(i, '(') {
                i = self.cur.skip_group(i, '(', ')');
            }
            if self.cur.punct(i, '.') {
                if let Some(m) = self.cur.ident(i + 1) {
                    chain.push((m.to_owned(), i + 1));
                    i += 2;
                    continue;
                }
            }
            break;
        }
        let (terminal, _) = chain.last().cloned().unwrap_or_default();
        if CLEAN_TERMINALS.contains(&terminal.as_str()) {
            return None;
        }
        if let Some(&(_, at)) = chain.iter().find(|(m, _)| m == "collect") {
            // `collect::<BTreeMap<..>>()` restores a total order.
            if self.cur.punct(at + 1, ':')
                && self.cur.punct(at + 2, ':')
                && self.cur.punct(at + 3, '<')
            {
                let close = self.cur.skip_angles(at + 3);
                for k in at + 4..close {
                    if self
                        .cur
                        .ident(k)
                        .is_some_and(|s| s == "BTreeMap" || s == "BTreeSet")
                    {
                        return None;
                    }
                }
            }
            // `let v = ...collect(); ... v.sort*()` re-establishes order.
            let stmt = self.cur.statement(head);
            if self.cur.ident(stmt.start) == Some("let") {
                let mut j = stmt.start + 1;
                if self.cur.ident(j) == Some("mut") {
                    j += 1;
                }
                if let Some(bound) = self.cur.ident(j) {
                    let sorted_later = (stmt.end..self.cur.end).any(|k| {
                        self.cur.ident(k) == Some(bound)
                            && self.cur.punct(k + 1, '.')
                            && self.cur.ident(k + 2).is_some_and(|m| m.starts_with("sort"))
                    });
                    if sorted_later {
                        return None;
                    }
                }
            }
        }
        Some(format!(
            "`{recv}.{method}()` iterates an unordered container and `{terminal}` can \
             observe hash order; use BTreeMap/BTreeSet or collect-and-sort"
        ))
    }

    /// For a `for` keyword at `at`, the loop source when it is a bare
    /// identifier or `self.field` (chained sources are handled by the
    /// method-chain matcher).
    fn bare_for_source(&self, at: usize) -> Option<(u32, String)> {
        let mut i = at + 1;
        let mut guard = 0usize;
        while i < self.cur.end && self.cur.ident(i) != Some("in") {
            i += 1;
            guard += 1;
            if guard > 64 {
                return None; // malformed; give up on this `for`
            }
        }
        let mut j = i + 1;
        while self.cur.punct(j, '&') || self.cur.ident(j) == Some("mut") {
            j += 1;
        }
        let name = self.cur.ident(j)?;
        let (name, after) = if name == "self" && self.cur.punct(j + 1, '.') {
            let field = self.cur.ident(j + 2)?;
            (format!("self.{field}"), j + 3)
        } else {
            (name.to_owned(), j + 1)
        };
        // Only the bare form: the next token must open the loop body.
        if self.cur.punct(after, '{') {
            Some((self.cur.line(j), name))
        } else {
            None
        }
    }

    /// d9/d3: clock values escaping timing metadata.
    fn clocks(&self, facts: &mut FnFacts) {
        let mut clock_vars: Vec<(String, usize)> = Vec::new();
        let mut i = self.cur.start;
        while i < self.cur.end {
            let word = match self.cur.ident(i) {
                Some(w) if w == "Instant" || w == "SystemTime" => w,
                _ => {
                    i += 1;
                    continue;
                }
            };
            let stmt = self.cur.statement(i);
            // `let [mut] t = Instant::now();` binds a clock var.
            if self.cur.ident(stmt.start) == Some("let") {
                let mut j = stmt.start + 1;
                if self.cur.ident(j) == Some("mut") {
                    j += 1;
                }
                if let (Some(name), true) = (self.cur.ident(j), self.cur.punct(j + 1, '=')) {
                    let bare_now = j + 2 == i
                        && self.cur.punct(i + 1, ':')
                        && self.cur.punct(i + 2, ':')
                        && self.cur.ident(i + 3) == Some("now")
                        && self.cur.punct(i + 4, '(')
                        && self.cur.punct(i + 5, ')')
                        && i + 6 == stmt.end;
                    if bare_now {
                        clock_vars.push((name.to_owned(), stmt.end));
                        i = stmt.end;
                        continue;
                    }
                }
            }
            // Any other appearance must land in timing metadata.
            if !self.assigns_to_timing_target(&stmt) {
                facts.clock_sites.push(Site {
                    line: self.cur.line(i),
                    what: format!(
                        "`{word}` value escapes outside timing metadata; deterministic \
                         paths must not observe wall-clock readings"
                    ),
                });
            }
            i = stmt.end.max(i + 1);
        }
        // Every later use of a clock var must be `t.elapsed()` assigned
        // into a timing-named target.
        for (name, from) in clock_vars {
            let mut i = from;
            while i < self.cur.end {
                if self.cur.ident(i) == Some(&name)
                    && !self.cur.punct(i.wrapping_sub(1), '.')
                    && !self.cur.punct(i + 1, ':')
                {
                    let conforming = self.cur.punct(i + 1, '.')
                        && self.cur.ident(i + 2) == Some("elapsed")
                        && self.assigns_to_timing_target(&self.cur.statement(i));
                    if !conforming {
                        facts.clock_sites.push(Site {
                            line: self.cur.line(i),
                            what: format!(
                                "clock value `{name}` escapes beyond `elapsed()`-into-\
                                 timing-metadata; deterministic paths must not observe it"
                            ),
                        });
                    }
                }
                i += 1;
            }
        }
    }

    /// d9/d3 entropy sources and d8/d5 panic sites.
    fn entropy_and_panics(&self, facts: &mut FnFacts) {
        for i in self.cur.start..self.cur.end {
            let line = self.cur.line(i);
            let Some(word) = self.cur.ident(i) else {
                continue;
            };
            match word {
                w if ENTROPY_IDENTS.contains(&w) => facts.entropy_sites.push(Site {
                    line,
                    what: format!(
                        "entropy source {w} on a deterministic path; seed/pin explicitly"
                    ),
                }),
                "random" if self.cur.punct(i + 1, '(') => facts.entropy_sites.push(Site {
                    line,
                    what: "entropy source random() on a deterministic path; seed explicitly".into(),
                }),
                "current"
                    if i >= 3
                        && self.cur.punct(i - 1, ':')
                        && self.cur.punct(i - 2, ':')
                        && self.cur.ident(i - 3) == Some("thread") =>
                {
                    facts.entropy_sites.push(Site {
                        line,
                        what: "thread::current() identity on a deterministic path".into(),
                    })
                }
                "unwrap" | "expect"
                    if i >= 1 && self.cur.punct(i - 1, '.') && self.cur.punct(i + 1, '(') =>
                {
                    facts.panic_sites.push(Site {
                        line,
                        what: format!("{word}() can panic; return a structured error instead"),
                    })
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if self.cur.punct(i + 1, '!') =>
                {
                    facts.panic_sites.push(Site {
                        line,
                        what: format!("{word}! panics; return a structured error instead"),
                    })
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser;

    fn facts(src: &str) -> FnFacts {
        let code: Vec<Token> = tokenize(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
            .collect();
        let parsed = parser::parse(&code);
        let f = parsed.functions.first().expect("fixture has a fn");
        analyze_fn(&code, f, &parsed.unordered_fields)
    }

    #[test]
    fn lookup_only_maps_are_clean() {
        let src = "
            fn f(cache: &HashMap<String, u32>) -> u32 {
                let mut local = HashMap::new();
                local.insert(1, 2);
                *cache.get(\"k\").unwrap_or(&0) + local.len() as u32
            }
        ";
        assert!(facts(src).unordered_sites.is_empty());
    }

    #[test]
    fn return_type_does_not_taint_the_last_parameter() {
        let src = "
            fn f(days: &[i64]) -> HashMap<i64, usize> {
                days.iter().map(|&d| (d, 1)).collect()
            }
        ";
        assert!(facts(src).unordered_sites.is_empty());
    }

    #[test]
    fn escaping_iteration_is_a_site() {
        let src = "
            fn f(m: &HashMap<String, f64>) -> Vec<f64> {
                m.values().cloned().collect()
            }
        ";
        let got = facts(src);
        assert_eq!(got.unordered_sites.len(), 1);
        assert_eq!(got.unordered_sites[0].line, 3);
    }

    #[test]
    fn order_insensitive_terminals_are_clean() {
        let src = "
            fn f(m: &HashMap<u32, f64>) -> bool {
                let n = m.values().count();
                m.iter().any(|(_, v)| *v > 0.5) && n > 0
            }
        ";
        assert!(facts(src).unordered_sites.is_empty());
    }

    #[test]
    fn collect_into_btree_or_sort_is_clean() {
        let src = "
            fn f(m: &HashMap<String, f64>) -> Vec<String> {
                let ordered = m.keys().cloned().collect::<BTreeSet<String>>();
                let mut v: Vec<String> = m.keys().cloned().collect();
                v.sort();
                v
            }
        ";
        assert!(facts(src).unordered_sites.is_empty());
    }

    #[test]
    fn sum_is_not_order_insensitive() {
        let src = "
            fn f(m: &HashMap<u32, f64>) -> f64 {
                m.values().sum()
            }
        ";
        assert_eq!(facts(src).unordered_sites.len(), 1);
    }

    #[test]
    fn bare_for_loop_over_map_is_a_site() {
        let src = "
            fn f(m: HashMap<u32, u32>) {
                for kv in &m {
                    emit(kv);
                }
            }
        ";
        assert_eq!(facts(src).unordered_sites.len(), 1);
    }

    #[test]
    fn self_field_iteration_uses_struct_facts() {
        let src = "
            struct Encoder { forward: HashMap<String, usize> }
            impl Encoder {
                fn dump(&self) -> Vec<String> {
                    self.forward.keys().cloned().collect()
                }
            }
        ";
        assert_eq!(facts(src).unordered_sites.len(), 1);
    }

    #[test]
    fn elapsed_into_timing_metadata_is_clean() {
        let src = "
            fn f(out: &mut Report) {
                let ts = Instant::now();
                work();
                out.sanitize_secs = ts.elapsed().as_secs_f64();
            }
        ";
        assert!(facts(src).clock_sites.is_empty());
    }

    #[test]
    fn clock_value_escaping_is_a_site() {
        let src = "
            fn f() -> u64 {
                let ts = Instant::now();
                seed_from(ts)
            }
        ";
        let got = facts(src);
        assert_eq!(got.clock_sites.len(), 1);
        assert_eq!(got.clock_sites[0].line, 4);
    }

    #[test]
    fn unbound_clock_use_checks_its_statement_target() {
        let clean = "
            fn f(out: &mut Report) {
                out.wall_ms = SystemTime::now().duration_since(EPOCH).as_millis();
            }
        ";
        assert!(facts(clean).clock_sites.is_empty());
        let dirty = "
            fn f() -> u64 {
                let seed = SystemTime::now().subsec_nanos();
                seed
            }
        ";
        assert_eq!(facts(dirty).clock_sites.len(), 1);
    }

    #[test]
    fn entropy_and_panic_sites_are_collected() {
        let src = "
            fn f(v: &[u32]) -> u32 {
                let mut rng = thread_rng();
                let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
                let first = v.first().unwrap();
                if v.is_empty() { panic!(\"empty\"); }
                v[0] + first + n as u32
            }
        ";
        let got = facts(src);
        assert_eq!(got.entropy_sites.len(), 2);
        assert_eq!(got.panic_sites.len(), 2);
    }
}
