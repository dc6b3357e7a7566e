//! Intra-function fact extraction for the interprocedural rules.
//!
//! For every parsed function this pass tags the sites where a
//! determinism-relevant value is created and *escapes*. Locals, clock
//! bindings, loop sources and assignment targets come from the
//! function's [`crate::ir`]. The pass is the only detector for these
//! facts; [`Family::route`] and the call graph decide their label —
//! facts inside functions reachable from a deterministic root become
//! d7/d8/d9 findings with a call chain; facts in unreachable functions
//! become the crate-scoped d2/d5/d3 findings.
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
//! - **clock values** (d9/d3): `let t [: Instant] = Instant::now()` is
//!   clean when every later use of `t` is `t.elapsed()` assigned into
//!   a timing-named target (`*_secs`, `duration`, …). Any other use —
//!   passing `t` onward, binding `now()` into a non-timing slot —
//!   escapes.
//! - **entropy** (d9/d3): `thread_rng`, `from_entropy`, `random()`,
//!   `thread::current`, `available_parallelism` are always sites; the
//!   contract requires explicit seeding and pinned thread counts.
//! - **panics** (d8/d5): `.unwrap()` / `.expect()` / `panic!`-family
//!   macros.

use crate::ir::{FnIr, Kind, Let};
use crate::lexer::{Cursor, Token};
use crate::parser::FnItem;
use crate::rules::{has_segment, Family, Site};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

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

/// Tags the facts of one function, over the same comment-free token
/// stream the parser consumed, into `sites`. Total: never panics.
pub fn analyze_fn(
    code: &[Token],
    f: &FnItem,
    ir: &FnIr,
    unordered_fields: &BTreeSet<String>,
    sites: &mut Vec<Site>,
) {
    let cur = Cursor::new(code, f.body.clone());
    let lets = ir.lets();
    let a = Analyzer {
        cur,
        ir,
        unordered_fields,
        unordered_locals: unordered_locals(cur, ir, &lets),
        lets,
    };
    a.unordered(sites);
    a.clocks(sites);
    a.entropy_and_panics(sites);
}

struct Analyzer<'a> {
    cur: Cursor<'a>,
    ir: &'a FnIr,
    /// Every `let`, in token order.
    lets: Vec<(Range<usize>, &'a Let)>,
    unordered_fields: &'a BTreeSet<String>,
    unordered_locals: BTreeSet<String>,
}

fn is_unordered_type(word: &str) -> bool {
    word == "HashMap" || word == "HashSet"
}

/// Unordered locals: parameters and simple `let` bindings whose
/// declared type or initializer mentions `HashMap`/`HashSet`.
fn unordered_locals(cur: Cursor<'_>, ir: &FnIr, lets: &[(Range<usize>, &Let)]) -> BTreeSet<String> {
    let mentions = |r: Range<usize>| cur.any_ident(r, is_unordered_type);
    let params = ir.params.iter().filter(|(_, ty)| mentions(ty.clone()));
    let mut out: BTreeSet<String> = params.map(|(name, _)| name.clone()).collect();
    for (span, l) in lets {
        if let Some(name) = l.name.and_then(|k| cur.ident(k)) {
            if mentions(l.pat.end..span.end) {
                out.insert(name.to_owned());
            }
        }
    }
    out
}

impl Analyzer<'_> {
    /// Whether the statement around token `i` assigns into a
    /// timing-named target: the left side of an assignment, or the
    /// pattern and type of a `let`, names an identifier with a timing
    /// word among its snake segments.
    fn assigns_to_timing_target(&self, i: usize) -> bool {
        let stmt = self.ir.stmt_starting_at(self.ir.stmt_of(i).start);
        let lhs = match stmt.map(|s| &s.kind) {
            Some(Kind::Assign(lhs, ..)) => lhs.clone(),
            Some(Kind::Let(l)) => l.pat.start..l.ty.as_ref().map_or(l.pat.end, |t| t.end),
            _ => return false,
        };
        self.cur
            .any_ident(lhs, |name| has_segment(name, TIMING_WORDS))
    }

    /// The simple name bound by the `let` starting at token `i`.
    fn let_name_at(&self, i: usize) -> Option<&str> {
        let (_, l) = self.lets.iter().find(|(span, _)| span.start == i)?;
        l.name.and_then(|k| self.cur.ident(k))
    }

    /// d7/d2: unordered-container iteration that can observe hash
    /// order.
    fn unordered(&self, sites: &mut Vec<Site>) {
        let mut bare_fors = BTreeMap::new();
        self.ir.walk(|s| {
            if let Kind::For(pat, iter, _) = &s.kind {
                if let Some(src) = self.bare_for_source(iter.clone()) {
                    bare_fors.insert(pat.start.wrapping_sub(1), src);
                }
            }
        });
        let mut i = self.cur.start;
        while i < self.cur.end {
            // `recv.iter()`-family chain heads.
            if let Some(m) = self.cur.ident(i) {
                if ITER_METHODS.contains(&m) && i >= 1 && self.cur.punct(i - 1, '.') {
                    if let Some(recv) = self.receiver_name(i) {
                        if self.is_unordered(&recv) {
                            if let Some(what) = self.chain_escapes(i, &recv, m) {
                                sites.push(Site::new(Family::Unordered, self.cur.line(i), what));
                            }
                        }
                    }
                }
                // Bare `for x in map` / `for x in &map { ... }`.
                if m == "for" {
                    if let Some((line, recv)) = bare_fors.get(&i).cloned() {
                        if self.is_unordered(&recv) {
                            let what = format!(
                                "`for` loop iterates unordered `{recv}` directly; hash order \
                                 is observable"
                            );
                            sites.push(Site::new(Family::Unordered, line, what));
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
    /// (`f().iter()`, `other.map.iter()`), which this pass cannot type.
    fn receiver_name(&self, at: usize) -> Option<String> {
        let c = self.cur.dotted(0..at.checked_sub(1)?);
        if self.cur.punct(c.start.wrapping_sub(1), '.') {
            return None;
        }
        self.receiver(c)
    }

    /// The container a dotted chain names, when it is a bare
    /// identifier or a `self.field`.
    fn receiver(&self, c: Range<usize>) -> Option<String> {
        match c.len() {
            1 => self.cur.ident(c.start).map(str::to_owned),
            3 if self.cur.ident(c.start) == Some("self") => Some(self.cur.text(&c)),
            _ => None,
        }
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
            let stmt = self.ir.stmt_of(head);
            if let Some(bound) = self.let_name_at(stmt.start) {
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
        Some(format!(
            "`{recv}.{method}()` iterates an unordered container and `{terminal}` can \
             observe hash order; use BTreeMap/BTreeSet or collect-and-sort"
        ))
    }

    /// The loop source when a `for` iterates a bare identifier or
    /// `self.field` (chained sources are handled by the method-chain
    /// matcher).
    fn bare_for_source(&self, iter: Range<usize>) -> Option<(u32, String)> {
        let mut j = iter.start;
        while self.cur.punct(j, '&') || self.cur.ident(j) == Some("mut") {
            j += 1;
        }
        let c = self.cur.dotted(j..iter.end);
        let name = self.receiver(c.clone()).filter(|_| c.start == j)?;
        Some((self.cur.line(j), name))
    }

    /// d9/d3: clock values escaping timing metadata.
    fn clocks(&self, sites: &mut Vec<Site>) {
        // `let [mut] t [: TYPE] = Instant::now();` binds a clock var.
        let mut clock_vars: Vec<(String, usize)> = Vec::new();
        let mut bindings: Vec<Range<usize>> = Vec::new();
        for (span, l) in &self.lets {
            let init = l.init.as_ref().map(|s| s.span.clone()).unwrap_or_default();
            let bare_now = init.len() == 6
                && matches!(self.cur.ident(init.start), Some("Instant" | "SystemTime"))
                && self.cur.punct(init.start + 1, ':')
                && self.cur.punct(init.start + 2, ':')
                && self.cur.ident(init.start + 3) == Some("now")
                && self.cur.punct(init.start + 4, '(')
                && self.cur.punct(init.start + 5, ')');
            if let (Some(name), true) = (l.name.and_then(|k| self.cur.ident(k)), bare_now) {
                clock_vars.push((name.to_owned(), span.end));
                bindings.push(span.clone());
            }
        }
        let mut i = self.cur.start;
        while i < self.cur.end {
            let word = match self.cur.ident(i) {
                Some(w) if w == "Instant" || w == "SystemTime" => w,
                _ => {
                    i += 1;
                    continue;
                }
            };
            if let Some(b) = bindings.iter().find(|b| b.contains(&i)) {
                i = b.end;
                continue;
            }
            // Any other appearance must land in timing metadata.
            if !self.assigns_to_timing_target(i) {
                let what = format!(
                    "`{word}` value escapes outside timing metadata; deterministic paths \
                     must not observe wall-clock readings"
                );
                sites.push(Site::new(Family::Clock, self.cur.line(i), what));
            }
            i = self.ir.stmt_of(i).end.max(i + 1);
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
                        && self.assigns_to_timing_target(i);
                    if !conforming {
                        let what = format!(
                            "clock value `{name}` escapes beyond `elapsed()`-into-\
                             timing-metadata; deterministic paths must not observe it"
                        );
                        sites.push(Site::new(Family::Clock, self.cur.line(i), what));
                    }
                }
                i += 1;
            }
        }
    }

    /// d9/d3 entropy sources and d8/d5 panic sites.
    fn entropy_and_panics(&self, sites: &mut Vec<Site>) {
        for i in self.cur.start..self.cur.end {
            let Some(word) = self.cur.ident(i) else {
                continue;
            };
            let (family, what) = match word {
                w if ENTROPY_IDENTS.contains(&w) => (
                    Family::Entropy,
                    format!("entropy source {w} on a deterministic path; seed/pin explicitly"),
                ),
                "random" if self.cur.punct(i + 1, '(') => (
                    Family::Entropy,
                    "entropy source random() on a deterministic path; seed explicitly".into(),
                ),
                "current"
                    if i >= 3
                        && self.cur.punct(i - 1, ':')
                        && self.cur.punct(i - 2, ':')
                        && self.cur.ident(i - 3) == Some("thread") =>
                {
                    (
                        Family::Entropy,
                        "thread::current() identity on a deterministic path".into(),
                    )
                }
                "unwrap" | "expect"
                    if i >= 1 && self.cur.punct(i - 1, '.') && self.cur.punct(i + 1, '(') =>
                {
                    (
                        Family::Panic,
                        format!("{word}() can panic; return a structured error instead"),
                    )
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if self.cur.punct(i + 1, '!') =>
                {
                    (
                        Family::Panic,
                        format!("{word}! panics; return a structured error instead"),
                    )
                }
                _ => continue,
            };
            sites.push(Site::new(family, self.cur.line(i), what));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{tokenize, TokenKind};
    use crate::{ir, parser};

    /// The first function's sites of `family`.
    fn sites(src: &str, family: Family) -> Vec<Site> {
        let code: Vec<Token> = tokenize(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
            .collect();
        let parsed = parser::parse(&code);
        let f = parsed.functions.first().expect("fixture has a fn");
        let mut sites = Vec::new();
        let ir = ir::build(&code, f);
        analyze_fn(&code, f, &ir, &parsed.unordered_fields, &mut sites);
        sites.retain(|s| s.family == family);
        sites
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
        assert!(sites(src, Family::Unordered).is_empty());
    }

    #[test]
    fn return_type_does_not_taint_the_last_parameter() {
        let src = "
            fn f(days: &[i64]) -> HashMap<i64, usize> {
                days.iter().map(|&d| (d, 1)).collect()
            }
        ";
        assert!(sites(src, Family::Unordered).is_empty());
    }

    #[test]
    fn escaping_iteration_is_a_site() {
        let src = "
            fn f(m: &HashMap<String, f64>) -> Vec<f64> {
                m.values().cloned().collect()
            }
        ";
        let got = sites(src, Family::Unordered);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 3);
    }

    #[test]
    fn order_insensitive_terminals_are_clean() {
        let src = "
            fn f(m: &HashMap<u32, f64>) -> bool {
                let n = m.values().count();
                m.iter().any(|(_, v)| *v > 0.5) && n > 0
            }
        ";
        assert!(sites(src, Family::Unordered).is_empty());
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
        assert!(sites(src, Family::Unordered).is_empty());
    }

    #[test]
    fn sum_is_not_order_insensitive() {
        let src = "
            fn f(m: &HashMap<u32, f64>) -> f64 {
                m.values().sum()
            }
        ";
        assert_eq!(sites(src, Family::Unordered).len(), 1);
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
        assert_eq!(sites(src, Family::Unordered).len(), 1);
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
        assert_eq!(sites(src, Family::Unordered).len(), 1);
    }

    #[test]
    fn elapsed_into_timing_metadata_is_clean() {
        for binding in [
            "let ts = Instant::now();",
            "let ts: Instant = Instant::now();",
        ] {
            let src = format!(
                "
            fn f(out: &mut Report) {{
                {binding}
                work();
                out.sanitize_secs = ts.elapsed().as_secs_f64();
            }}
        "
            );
            let got = sites(&src, Family::Clock);
            assert!(got.is_empty(), "{binding}: {got:?}");
        }
    }

    #[test]
    fn clock_value_escaping_is_a_site() {
        for binding in [
            "let ts = Instant::now();",
            "let ts: Instant = Instant::now();",
        ] {
            let src = format!(
                "
            fn f() -> u64 {{
                {binding}
                seed_from(ts)
            }}
        "
            );
            let got = sites(&src, Family::Clock);
            assert_eq!(got.len(), 1, "{binding}: {got:?}");
            assert_eq!(got[0].line, 4, "{binding}");
        }
    }

    #[test]
    fn unbound_clock_use_checks_its_statement_target() {
        let clean = "
            fn f(out: &mut Report) {
                out.wall_ms = SystemTime::now().duration_since(EPOCH).as_millis();
            }
        ";
        assert!(sites(clean, Family::Clock).is_empty());
        let dirty = "
            fn f() -> u64 {
                let seed = SystemTime::now().subsec_nanos();
                seed
            }
        ";
        assert_eq!(sites(dirty, Family::Clock).len(), 1);
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
        assert_eq!(sites(src, Family::Entropy).len(), 2);
        assert_eq!(sites(src, Family::Panic).len(), 2);
    }
}
