//! Interprocedural value-range abstract interpretation over each
//! function's [`crate::ir`] statement tree: the semantic layer behind
//! the d13–d15 rules.
//!
//! The domain is a classic interval lattice over the integers
//! (`[lo, hi]` with saturating endpoint arithmetic), seeded from
//! literal constants, `let` definitions, declared parameter types and
//! range-loop binders, refined by branch guards (`<`/`<=`/`==`/`!=`/
//! `is_empty` conditions), widened at loop heads so every analysis
//! terminates, and propagated bottom-up across the workspace call
//! graph as per-function summaries `(declared param intervals →
//! return interval)` — calls the resolver could only cover with
//! fallback edges conservatively return ⊤.
//!
//! Three light companion domains cover what intervals cannot:
//!
//! * a **relational set** of `a ≥ b` facts from dominating guards, so
//!   `if v < prev { … prev - v … }` is proven safe even when both
//!   operands are ⊤;
//! * a **nonzero set** of guard-checked expressions, so
//!   `if total != 0.0 { part / total }` clears d14 for compound
//!   denominators that have no interval of their own;
//! * a **dimension tag** per identifier (from suffixes/prefixes such
//!   as `_ms`, `_days`, `_bytes`, `_gib`, `_ratio`, `wall_`, `n_`)
//!   feeding the d15 unit-mixing check.
//!
//! The three rules have deliberately opposite polarities, documented
//! in DESIGN.md §12: counter **subtraction** (d13) must be *proven
//! safe* (`rhs ≤ lhs`) because a wrapped cumulative counter is the
//! paper's dominant silent-corruption class; `+`/`*`/`<<` overflow
//! and `as` truncation are flagged only when the interval *proves*
//! the defect (every execution overflows), because possible-overflow
//! on full-range operands would flood every addition in the
//! workspace. The same cast judgment drives d6: a narrow cast near a
//! counter name is a d6 site unless its operand interval fits the
//! target width (and a proven truncation is d13 where it is
//! reachable).
//!
//! Like every layer below it, this one is *total*: arbitrary token
//! soup produces an (empty) fact set, never a panic, enforced by the
//! fuzz drivers in `tests/tokenizer_props.rs` plus a per-function
//! fuel bound.

use crate::callgraph::{CallGraph, FileItems};
use crate::ir::{FnIr, Kind, Let, Stmt};
use crate::lexer::{is_float_number, is_keyword, Cursor, Token, TokenKind};
use crate::parser::FnItem;
use crate::rules::{is_counterish, Family, Site};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Range;

/// Endpoint cap: interval arithmetic saturates here instead of
/// overflowing `i128`. Wide enough to hold any `u64` product.
const CAP: i128 = i128::MAX / 4;
const U64_MAX: i128 = u64::MAX as i128;

/// A closed integer interval `[lo, hi]`. The lattice top is
/// `[-CAP, CAP]`; there is no bottom — `meet` returns `None` when the
/// intersection is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i128,
    /// Inclusive upper bound.
    pub hi: i128,
}

fn clamp(v: i128) -> i128 {
    v.clamp(-CAP, CAP)
}

impl Interval {
    /// The unknown-everything element.
    #[must_use]
    pub fn top() -> Interval {
        Interval { lo: -CAP, hi: CAP }
    }

    /// A singleton interval.
    #[must_use]
    pub fn exact(v: i128) -> Interval {
        let v = clamp(v);
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`, swapping the endpoints if they arrive reversed (the
    /// total-analysis promise: garbage in, *an* interval out).
    #[must_use]
    pub fn new(lo: i128, hi: i128) -> Interval {
        let (lo, hi) = (clamp(lo), clamp(hi));
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// Whether this is the top element.
    #[must_use]
    pub fn is_top(&self) -> bool {
        self.lo <= -CAP && self.hi >= CAP
    }

    /// Least upper bound (union hull).
    #[must_use]
    pub fn join(&self, o: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Greatest lower bound; `None` when the intervals are disjoint.
    #[must_use]
    pub fn meet(&self, o: &Interval) -> Option<Interval> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Classic widening: any bound that moved jumps straight to the
    /// cap, so a loop stabilizes after one widening step — the
    /// termination argument is one line long.
    #[must_use]
    pub fn widen(&self, newer: &Interval) -> Interval {
        Interval {
            lo: if newer.lo < self.lo { -CAP } else { self.lo },
            hi: if newer.hi > self.hi { CAP } else { self.hi },
        }
    }

    /// Whether `0` is a member.
    #[must_use]
    pub fn contains_zero(&self) -> bool {
        self.lo <= 0 && 0 <= self.hi
    }

    /// Interval addition (saturating at the caps).
    #[must_use]
    pub fn add(&self, o: &Interval) -> Interval {
        Interval::new(self.lo.saturating_add(o.lo), self.hi.saturating_add(o.hi))
    }

    /// Interval subtraction.
    #[must_use]
    pub fn sub(&self, o: &Interval) -> Interval {
        Interval::new(self.lo.saturating_sub(o.hi), self.hi.saturating_sub(o.lo))
    }

    /// Interval multiplication (endpoint products, saturating).
    #[must_use]
    pub fn mul(&self, o: &Interval) -> Interval {
        let ps = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        let lo = ps.iter().copied().min().unwrap_or(-CAP);
        let hi = ps.iter().copied().max().unwrap_or(CAP);
        Interval::new(lo, hi)
    }

    /// Interval negation.
    #[must_use]
    pub fn neg(&self) -> Interval {
        Interval::new(-self.hi, -self.lo)
    }

    /// Left shift by a bounded amount; ⊤ when the shift is unknown or
    /// enormous.
    #[must_use]
    pub fn shl(&self, o: &Interval) -> Interval {
        if o.lo < 0 || o.hi > 127 {
            return Interval::top();
        }
        let Ok(a) = u32::try_from(o.lo) else {
            return Interval::top();
        };
        let Ok(b) = u32::try_from(o.hi) else {
            return Interval::top();
        };
        let shifted = |v: i128, s: u32| v.checked_shl(s).map_or(CAP * v.signum(), clamp);
        let ps = [
            shifted(self.lo, a),
            shifted(self.lo, b),
            shifted(self.hi, a),
            shifted(self.hi, b),
        ];
        let lo = ps.iter().copied().min().unwrap_or(-CAP);
        let hi = ps.iter().copied().max().unwrap_or(CAP);
        Interval::new(lo, hi)
    }
}

impl fmt::Display for Interval {
    /// Renders `[lo, hi]`, with full power-of-two upper bounds written
    /// half-open (`[0, 2^64)`) the way the evidence reads best, and
    /// top as `⊤`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            return write!(f, "⊤");
        }
        let hi_next = self.hi.saturating_add(1);
        if self.hi >= (1 << 16) && hi_next.count_ones() == 1 {
            let k = hi_next.trailing_zeros();
            write!(f, "[{}, 2^{k})", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// The interval a declared integer type spans, when `name` is one.
#[must_use]
pub fn type_range(name: &str) -> Option<Interval> {
    let r = match name {
        "u8" => Interval::new(0, u8::MAX as i128),
        "u16" => Interval::new(0, u16::MAX as i128),
        "u32" => Interval::new(0, u32::MAX as i128),
        "u64" | "usize" | "u128" => Interval::new(0, U64_MAX),
        "i8" => Interval::new(i8::MIN as i128, i8::MAX as i128),
        "i16" => Interval::new(i16::MIN as i128, i16::MAX as i128),
        "i32" => Interval::new(i32::MIN as i128, i32::MAX as i128),
        "i64" | "isize" | "i128" => Interval::new(i64::MIN as i128, i64::MAX as i128),
        _ => return None,
    };
    Some(r)
}

/// Value-range facts for one function, parallel to the call-graph
/// node list. All containers are BTree-ordered so reports are
/// bit-identical at any `MFPA_THREADS`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnAbs {
    /// The sites, by family then line: [`Family::Counter`] (unproven
    /// counter subtraction, proven `+`/`*`/`<<` overflow, proven
    /// truncating cast), [`Family::Division`] (a denominator interval
    /// that includes 0 with no dominating nonzero guard),
    /// [`Family::Units`] (`+`/`-`/comparison across inferred units), and
    /// the d6 [`Family::Cast`] / [`Family::TruncatingCast`] sites.
    pub sites: Vec<Site>,
    /// Summary: the return-value interval at declared param ranges.
    pub ret: Interval,
}

impl Default for Interval {
    fn default() -> Interval {
        Interval::top()
    }
}

/// Runs the abstract interpreter over every function in the
/// workspace: one quiet pass to seed the per-function summaries
/// (calls read ⊤), then a reporting pass that reads pass-one
/// summaries through the call graph. `files` must be the exact list
/// [`CallGraph::build`] consumed — node order is the shared index.
#[must_use]
pub fn analyze(files: &[FileItems], graph: &CallGraph) -> Vec<FnAbs> {
    // Node index -> (file, fn) in CallGraph::build order.
    let mut meta: Vec<(usize, usize)> = Vec::with_capacity(graph.nodes.len());
    for (fx, file) in files.iter().enumerate() {
        for ix in 0..file.parsed.functions.len() {
            meta.push((fx, ix));
        }
    }
    let n = graph.nodes.len().min(meta.len());
    let mut summaries: Vec<Interval> = vec![Interval::top(); n];
    let mut out: Vec<FnAbs> = vec![FnAbs::default(); n];
    // Only a resolved call edge reads a summary, so the quiet pass skips
    // every function no resolved edge reaches.
    let mut summarized = vec![false; n];
    for e in graph.edges.iter().filter(|e| !e.fallback && e.callee < n) {
        summarized[e.callee] = true;
    }
    for pass in 0..2 {
        let quiet = pass == 0;
        for node in 0..n {
            if quiet && !summarized[node] {
                continue;
            }
            let (fx, ix) = meta[node];
            let Some(file) = files.get(fx) else { continue };
            let Some(f) = file.parsed.functions.get(ix) else {
                continue;
            };
            let Some(ir) = file.irs.get(ix) else { continue };
            let call_rets = call_returns(graph, node, &summaries);
            let abs = interpret(&file.code, f, ir, &call_rets, quiet);
            summaries[node] = abs.ret;
            if !quiet {
                out[node] = abs;
            }
        }
    }
    out
}

/// Joins the summaries of every resolved callee per call line;
/// fallback edges poison the line to ⊤ (the resolver could not pin
/// the callee down, so neither can we).
fn call_returns(graph: &CallGraph, node: usize, summaries: &[Interval]) -> BTreeMap<u32, Interval> {
    let mut rets: BTreeMap<u32, Interval> = BTreeMap::new();
    let Some(out) = graph.out_edges.get(node) else {
        return rets;
    };
    for &ex in out {
        let Some(e) = graph.edges.get(ex) else {
            continue;
        };
        let ret = if e.fallback {
            Interval::top()
        } else {
            summaries
                .get(e.callee)
                .copied()
                .unwrap_or_else(Interval::top)
        };
        rets.entry(e.line)
            .and_modify(|r| *r = r.join(&ret))
            .or_insert(ret);
    }
    rets
}

/// Interprets one function body. Public for the unit/property tests;
/// the lint pipeline goes through [`analyze`].
#[must_use]
pub fn interpret(
    code: &[Token],
    f: &FnItem,
    ir: &FnIr,
    call_rets: &BTreeMap<u32, Interval>,
    quiet: bool,
) -> FnAbs {
    let mut itp = Interp {
        cur: Cursor::new(code, f.body.clone()),
        st: State::default(),
        tys: BTreeMap::new(),
        call_rets,
        quiet_depth: usize::from(quiet),
        fuel: 200_000,
        ret: None,
        diverged: false,
        found: BTreeSet::new(),
    };
    itp.seed_params(ir);
    let tail = itp.block(&ir.body);
    let mut ret = match itp.ret {
        Some(r) => {
            if itp.diverged {
                r
            } else {
                r.join(&tail)
            }
        }
        None => tail,
    };
    let declared = ir.ret.as_ref().and_then(|r| itp.cur.ident(r.start));
    if let Some(declared) = declared.and_then(type_range) {
        ret = ret.meet(&declared).unwrap_or(declared);
    }
    let sites = itp.found.into_iter();
    FnAbs {
        sites: sites
            .map(|(family, line, what)| Site::new(family, line, what))
            .collect(),
        ret,
    }
}

struct Interp<'a> {
    cur: Cursor<'a>,
    /// The branch-sensitive facts.
    st: State,
    /// Declared integer type range per variable, for width checks.
    tys: BTreeMap<String, Interval>,
    call_rets: &'a BTreeMap<u32, Interval>,
    /// Facts are recorded only at depth 0 (loop pre-passes and the
    /// summary pass analyze quietly).
    quiet_depth: usize,
    fuel: u32,
    ret: Option<Interval>,
    diverged: bool,
    /// The sites found so far.
    found: BTreeSet<(Family, u32, String)>,
}

/// The facts a branch refines, saved and restored around `if`.
#[derive(Clone, Default)]
struct State {
    /// Variable (and dotted-path / `x.len`) intervals.
    env: BTreeMap<String, Interval>,
    /// Guard-proven `a >= b` facts over simple operand texts.
    rel_ge: BTreeSet<(String, String)>,
    /// Guard-proven nonzero expression texts.
    nonzero: BTreeSet<String>,
    /// Variables bound to integer-derived values (lengths, counters,
    /// int-literal seeds) without a declared type annotation; the d14
    /// evidence gate treats them like declared-integer idents.
    int_vars: BTreeSet<String>,
}

impl<'a> Interp<'a> {
    fn spend(&mut self) -> bool {
        if self.fuel == 0 {
            return false;
        }
        self.fuel -= 1;
        true
    }

    /// Records a site outside quiet analysis.
    fn record(&mut self, family: Family, line: u32, what: String) {
        if self.quiet_depth == 0 {
            self.found.insert((family, line, what));
        }
    }

    /// Seeds the environment from the declared parameter types.
    fn seed_params(&mut self, ir: &FnIr) {
        for (name, ty) in &ir.params {
            // Scan the type for an integer base, skipping reference/mut
            // sigils.
            let base = ty.clone().find(|&k| {
                !(self.cur.punct(k, '&')
                    || self.cur.punct(k, '\'')
                    || self.cur.ident(k) == Some("mut")
                    || matches!(self.cur.kind(k), Some(TokenKind::Lifetime)))
            });
            if let Some(r) = base.and_then(|k| self.cur.ident(k)).and_then(type_range) {
                self.st.env.insert(name.clone(), r);
                self.tys.insert(name.clone(), r);
            }
        }
    }

    /// Drops every derived fact that mentions `name` — called on any
    /// assignment, so stale guards never outlive their variables.
    fn clobber_facts(&mut self, name: &str) {
        self.st
            .rel_ge
            .retain(|(a, b)| !word_in(a, name) && !word_in(b, name));
        self.st.int_vars.remove(name);
        self.st.nonzero.retain(|k| !word_in(k, name));
        self.st.env.retain(|k, _| k == name || !word_in(k, name));
    }

    // ----- statement walking -------------------------------------

    /// Walks `stmts`, returning the interval of the trailing
    /// expression (the block's value position).
    fn block(&mut self, stmts: &[Stmt]) -> Interval {
        let mut last = Interval::top();
        for s in stmts {
            if !self.spend() {
                return Interval::top();
            }
            last = self.stmt(s);
        }
        last
    }

    /// One statement; returns its value.
    fn stmt(&mut self, s: &Stmt) -> Interval {
        match &s.kind {
            Kind::Let(l) => self.handle_let(l),
            Kind::Assign(lhs, at, op, rhs) => {
                let rv = self.expr_value(rhs, &s.inner);
                return self.handle_assign(lhs.clone(), *at, rhs.clone(), rv, *op);
            }
            Kind::If(cond, then, els) => return self.handle_if(cond, then, els.as_deref()),
            Kind::For(pat, iter, body) => {
                // A plain identifier binder gets the range's interval.
                let binder = (pat.len() == 1)
                    .then(|| self.cur.ident(pat.start))
                    .flatten()
                    .filter(|w| !is_keyword(w))
                    .map(str::to_owned);
                let binder_iv = self.range_binder_interval(iter);
                self.run_loop_body(body, binder.as_deref(), binder_iv);
            }
            Kind::While(cond, body) => {
                let guard = !cond.is_empty() && self.cur.ident(cond.start) != Some("let");
                if !cond.is_empty() {
                    let _ = self.eval(self.tested(cond));
                }
                self.run_loop_body(body, None, Interval::top());
                if guard {
                    // After a `while c {}` that exits normally, ¬c holds.
                    self.refine(cond, false);
                }
            }
            Kind::Match(scrutinee, arms) => self.handle_match(scrutinee, arms),
            Kind::Block(b) => return self.block(b),
            Kind::Jump(value) => {
                if let Some(value) = value {
                    let v = self.expr_value(value, &s.inner);
                    self.ret = Some(self.ret.map_or(v, |prev| prev.join(&v)));
                }
                self.diverged = true;
            }
            Kind::Expr(r) => return self.expr_value(r, &s.inner),
        }
        Interval::top()
    }

    /// The value of expression `r`, walking the compound statements
    /// nested in it (`inner`) for their facts; an expression that *is*
    /// one compound statement takes that statement's value.
    fn expr_value(&mut self, r: &Range<usize>, inner: &[Stmt]) -> Interval {
        if let [only] = inner {
            if only.span == *r {
                return self.stmt(only);
            }
        }
        let v = self.eval(r.clone());
        for s in inner {
            let _ = self.stmt(s);
        }
        v
    }

    fn handle_assign(
        &mut self,
        lhs: Range<usize>,
        at: usize,
        rhs: Range<usize>,
        rv: Interval,
        op: Option<char>,
    ) -> Interval {
        let shift = matches!(op, Some('<' | '>'));
        let compound = op.filter(|_| !shift);
        let key = simple_key(self.cur, &lhs);
        let line = self.cur.line(at);
        let new = match (compound, &key) {
            (Some(op), Some(k)) => {
                let cur = self.st.env.get(k).copied().unwrap_or_else(Interval::top);
                match op {
                    '+' => {
                        self.check_units(&lhs, &rhs, "+", line);
                        cur.add(&rv)
                    }
                    '-' => {
                        self.check_units(&lhs, &rhs, "-", line);
                        self.check_sub(&lhs, &rhs, &cur, &rv, line);
                        cur.sub(&rv)
                    }
                    '*' => cur.mul(&rv),
                    '/' | '%' => {
                        self.check_div(&rhs, &rv, line);
                        Interval::top()
                    }
                    _ => Interval::top(),
                }
            }
            _ if shift => {
                if let Some(k) = &key {
                    let cur = self.st.env.get(k).copied().unwrap_or_else(Interval::top);
                    self.check_shift(k, &cur, &rv, line);
                }
                Interval::top()
            }
            _ => rv,
        };
        if let Some(k) = key {
            // Width check on compound growth into a declared narrow
            // type: only a *certain* overflow fires (DESIGN §12).
            if let Some(ty) = self.tys.get(&k).copied() {
                if new.lo > ty.hi {
                    self.record(
                        Family::Counter,
                        line,
                        format!(
                            "`{k}` ∈ {new} no longer fits its declared range {ty} \
                             — every execution overflows"
                        ),
                    );
                }
            }
            let bound = match self.tys.get(&k) {
                Some(ty) => new.meet(ty).unwrap_or(*ty),
                None => new,
            };
            // Compound ops keep the variable's integer provenance
            // (`count += 1`); a plain re-bind takes the rhs's.
            let int_now = match compound {
                Some(_) => self.st.int_vars.contains(&k),
                None if !shift => self.int_evidence(&rhs, true),
                None => self.st.int_vars.contains(&k),
            };
            self.clobber_facts(&k);
            if int_now {
                self.st.int_vars.insert(k.clone());
            }
            self.st.env.insert(k, bound);
        }
        Interval::top()
    }

    fn handle_let(&mut self, l: &Let) {
        // `let x;` binds nothing we can see.
        let Some(init) = &l.init else {
            return;
        };
        let ty = match (&l.name, &l.ty) {
            (Some(_), Some(t)) => self.cur.ident(t.start).and_then(type_range),
            _ => None,
        };
        let v = self.stmt(init);
        if let Some(els) = &l.els {
            // The `else` of a `let … else` diverges; its facts do not
            // flow on.
            let (pre, saved_div) = (self.st.clone(), self.diverged);
            let _ = self.block(els);
            self.st = pre;
            self.diverged = saved_div;
        }
        let Some(name) = l.name.and_then(|k| self.cur.ident(k)).map(str::to_owned) else {
            // Destructuring: conservatively clobber every binder.
            let cur = self.cur;
            for w in l.binders.iter().filter_map(|&k| cur.ident(k)) {
                self.clobber_facts(w);
                self.st.env.insert(w.to_owned(), Interval::top());
            }
            return;
        };
        if let Some(ty) = ty {
            if v.lo > ty.hi {
                self.record(
                    Family::Counter,
                    self.cur.line(init.span.start.saturating_sub(1)),
                    format!(
                        "`{name}` ∈ {v} does not fit its declared range {ty} \
                         — every execution overflows"
                    ),
                );
            }
            self.tys.insert(name.clone(), ty);
        }
        let bound = match ty {
            Some(ty) => v.meet(&ty).unwrap_or(ty),
            None => v,
        };
        self.clobber_facts(&name);
        // A float annotation (`let x: f64 = …`) rules out integer
        // provenance whatever the initializer mentions.
        let float_ty = l.ty.as_ref().is_some_and(|t| self.cur.float_evidence(t));
        if ty.is_none() && !float_ty && self.int_evidence(&init.span, true) {
            self.st.int_vars.insert(name.clone());
        }
        self.st.env.insert(name, bound);
    }

    /// `if` / `else if` / `else` chain: returns the joined value of
    /// the branch blocks (for `let x = if …` bindings).
    fn handle_if(&mut self, cond: &Range<usize>, then: &[Stmt], els: Option<&Stmt>) -> Interval {
        let is_if_let = self.cur.ident(cond.start) == Some("let");
        let _ = self.eval(self.tested(cond));
        let base = self.st.clone();

        // Then branch under the positive refinement.
        let saved_div = self.diverged;
        self.diverged = false;
        if !is_if_let {
            self.refine(cond, true);
        }
        let then_val = self.block(then);
        let then_diverged = self.diverged;
        let then_state = self.st.clone();
        self.st = base.clone();
        self.diverged = false;

        // Else branch (if any) under the negative refinement.
        let mut else_state = None;
        let mut else_diverged = false;
        let mut else_val = None;
        if let Some(els) = els {
            if !is_if_let {
                self.refine(cond, false);
            }
            else_val = Some(self.stmt(els));
            else_diverged = self.diverged;
            else_state = Some(self.st.clone());
            self.st = base.clone();
            self.diverged = false;
        }

        // Merge.
        match (else_state, then_diverged, else_diverged) {
            (None, true, _) => {
                // Guard-with-early-exit: the negation holds after.
                if !is_if_let {
                    self.refine(cond, false);
                }
            }
            (None, false, _) => {
                self.merge_from(&then_state);
            }
            (Some(es), true, false) => self.st = es,
            (Some(_), false, true) => self.st = then_state,
            (Some(_), true, true) => {
                self.diverged = true;
            }
            (Some(es), false, false) => {
                self.st = then_state;
                self.merge_from(&es);
            }
        }
        self.diverged = self.diverged || saved_div;
        match else_val {
            Some(e) => then_val.join(&e),
            None => Interval::top(),
        }
    }

    /// The value a condition tests: the scrutinee of a `let PAT = EXPR`
    /// condition (after its first depth-0 `=` that is neither `==` nor
    /// a `..=` range pattern), else the whole condition.
    fn tested(&self, cond: &Range<usize>) -> Range<usize> {
        let c = self.cur;
        if c.ident(cond.start) != Some("let") {
            return cond.clone();
        }
        let eq = c.depth0(cond.start, cond.end, |k| {
            c.punct(k, '=') && !c.punct(k + 1, '=') && !c.punct(k.wrapping_sub(1), '.')
        });
        (eq + 1).min(cond.end)..cond.end
    }

    /// Var-wise join of the current state with another branch's.
    fn merge_from(&mut self, other: &State) {
        let keys: BTreeSet<String> = self
            .st
            .env
            .keys()
            .chain(other.env.keys())
            .cloned()
            .collect();
        for k in keys {
            let a = self.st.env.get(&k).copied().unwrap_or_else(Interval::top);
            let b = other.env.get(&k).copied().unwrap_or_else(Interval::top);
            self.st.env.insert(k, a.join(&b));
        }
        self.st.rel_ge.retain(|x| other.rel_ge.contains(x));
        self.st.nonzero.retain(|x| other.nonzero.contains(x));
        self.st.int_vars.retain(|x| other.int_vars.contains(x));
    }

    /// Applies a branch condition to the state. `positive` selects
    /// the then-side; the negative side applies negated conjuncts
    /// only when the logic stays sound (¬(A ∧ B) refines nothing;
    /// ¬(A ∨ B) refines both).
    fn refine(&mut self, cond: &Range<usize>, positive: bool) {
        let conjuncts = self.cur.split0(cond.clone(), "&&");
        let disjuncts = self.cur.split0(cond.clone(), "||");
        if positive {
            if disjuncts.len() > 1 {
                return;
            }
            for c in conjuncts {
                self.refine_atom(&c, true);
            }
        } else if conjuncts.len() > 1 {
            // ¬(A ∧ B) tells us nothing per conjunct.
        } else if disjuncts.len() > 1 {
            for d in disjuncts {
                self.refine_atom(&d, false);
            }
        } else {
            self.refine_atom(cond, false);
        }
    }

    /// One comparison / `is_empty` atom, possibly under a leading `!`.
    fn refine_atom(&mut self, r: &Range<usize>, mut positive: bool) {
        let mut r = r.clone();
        while self.cur.punct(r.start, '!') && !self.cur.punct(r.start + 1, '=') {
            positive = !positive;
            r.start += 1;
        }
        // `x.is_empty()` refines the pseudo-var `x.len`.
        if let Some(base) = self.is_empty_base(&r) {
            let key = format!("{base}.len");
            let v = if positive {
                Interval::exact(0)
            } else {
                Interval::new(1, U64_MAX)
            };
            self.st.env.insert(key.clone(), v);
            if !positive {
                self.st.nonzero.insert(key);
            }
            return;
        }
        let Some(op) = self.find_op(&r, Op::Cmp) else {
            return;
        };
        let (lhs, rhs) = (r.start..op.start, op.end..r.end);
        let op = self.cur.text(&op);
        let op_eff = if positive { op.as_str() } else { negate(&op) };
        self.apply_cmp(&lhs, op_eff, &rhs);
        // Mirror: `a < b` is `b > a`.
        self.apply_cmp(&rhs, mirror(op_eff), &lhs);
    }

    /// Applies `lhs OP rhs` to lhs's entry (interval meet + relation
    /// + nonzero bookkeeping).
    fn apply_cmp(&mut self, lhs: &Range<usize>, op: &str, rhs: &Range<usize>) {
        let rv = self.eval_quiet(rhs.clone());
        let key = simple_key(self.cur, lhs);
        let ltext = self.cur.text(lhs);
        let rtext = self.cur.text(rhs);
        // Relational facts over simple operand texts.
        match op {
            ">" | ">=" | "==" => {
                self.st.rel_ge.insert((ltext.clone(), rtext.clone()));
            }
            _ => {}
        }
        // Nonzero facts over arbitrary expression texts.
        let rhs_is_zero = rv == Interval::exact(0) || is_zero_literal(self.cur, rhs);
        match op {
            "!=" if rhs_is_zero => {
                self.st.nonzero.insert(ltext.clone());
            }
            ">" if rv.lo >= 0 => {
                self.st.nonzero.insert(ltext.clone());
            }
            ">=" if rv.lo >= 1 => {
                self.st.nonzero.insert(ltext.clone());
            }
            "<" if rv.hi <= 0 => {
                self.st.nonzero.insert(ltext.clone());
            }
            _ => {}
        }
        let Some(key) = key else { return };
        let cur = self.st.env.get(&key).copied().unwrap_or_else(Interval::top);
        let bound = match op {
            "<" => Interval::new(-CAP, rv.hi.saturating_sub(1)),
            "<=" => Interval::new(-CAP, rv.hi),
            ">" => Interval::new(rv.lo.saturating_add(1), CAP),
            ">=" => Interval::new(rv.lo, CAP),
            "==" => rv,
            "!=" => {
                // Only the endpoint cases shrink an interval.
                if rv == Interval::exact(cur.lo) {
                    Interval::new(cur.lo.saturating_add(1), cur.hi)
                } else if rv == Interval::exact(cur.hi) {
                    Interval::new(cur.lo, cur.hi.saturating_sub(1))
                } else {
                    cur
                }
            }
            _ => cur,
        };
        if let Some(m) = cur.meet(&bound) {
            self.st.env.insert(key, m);
        }
    }

    /// When `r` is `base.is_empty()`, the base text.
    fn is_empty_base(&self, r: &Range<usize>) -> Option<String> {
        let mut k = r.end;
        while k > r.start && self.cur.punct(k - 1, ')') {
            k -= 1;
        }
        while k > r.start && self.cur.punct(k - 1, '(') {
            k -= 1;
        }
        if k == r.start || self.cur.ident(k - 1) != Some("is_empty") {
            return None;
        }
        if k < 2 || !self.cur.punct(k - 2, '.') {
            return None;
        }
        Some(self.cur.text(&(r.start..k - 2)))
    }

    /// The binder interval of a `a..b` / `a..=b` iterator, else ⊤.
    fn range_binder_interval(&mut self, iter: &Range<usize>) -> Interval {
        let range_op = |k| self.op_width(Op::Range, iter, k);
        let k = self
            .cur
            .depth0(iter.start, iter.end, |k| range_op(k).is_some());
        let Some(width) = range_op(k).filter(|_| k < iter.end) else {
            let _ = self.eval(iter.clone());
            return Interval::top();
        };
        let lo = self.eval(iter.start..k);
        let hi = self.eval(k + width..iter.end);
        let hi_end = if width == 3 {
            hi.hi
        } else {
            hi.hi.saturating_sub(1)
        };
        Interval::new(lo.lo, hi_end.max(lo.lo))
    }

    /// The widening protocol: one quiet pass to find the mutated
    /// variables, widen those, then one reporting pass over the
    /// stabilized environment. Terminates because `widen` jumps any
    /// moved bound straight to the cap.
    fn run_loop_body(&mut self, body: &[Stmt], binder: Option<&str>, binder_iv: Interval) {
        let pre = self.st.clone();
        if let Some(b) = binder {
            self.st.env.insert(b.to_owned(), binder_iv);
        }
        let seeded = self.st.clone();
        self.quiet_depth += 1;
        let saved_div = self.diverged;
        let _ = self.block(body);
        self.quiet_depth -= 1;
        // Widen every variable the body moved; drop derived facts on
        // them (the guard that proved them may be loop-varying).
        let mut widened = seeded.env.clone();
        for (k, after) in &self.st.env {
            let before = seeded.env.get(k).copied().unwrap_or_else(Interval::top);
            if *after != before {
                widened.insert(k.clone(), before.widen(after));
            }
        }
        self.st = pre;
        for (k, v) in &widened {
            let before = seeded.env.get(k).copied().unwrap_or_else(Interval::top);
            if *v != before {
                let k = k.clone();
                self.clobber_facts(&k);
                self.st.env.insert(k, *v);
            } else if !self.st.env.contains_key(k) {
                self.st.env.insert(k.clone(), *v);
            }
        }
        if let Some(b) = binder {
            self.st.env.insert(b.to_owned(), binder_iv);
        }
        let _ = self.block(body);
        self.diverged = saved_div;
        // The binder goes out of scope; its last interval is harmless.
    }

    /// `match`: arms are walked for facts with the current
    /// environment; every variable assigned anywhere inside is
    /// clobbered afterwards (arms are not modeled individually).
    fn handle_match(&mut self, scrutinee: &Range<usize>, arms: &[(Range<usize>, Stmt)]) {
        let _ = self.eval(scrutinee.clone());
        let pre = self.st.clone();
        let saved_div = self.diverged;
        for (pat, body) in arms {
            if let Some(g) = pat.clone().find(|&k| self.cur.ident(k) == Some("if")) {
                let _ = self.eval(g + 1..pat.end);
            }
            let _ = self.stmt(body);
        }
        self.st = pre;
        self.diverged = saved_div;
        let mut assigned: Vec<(String, String)> = Vec::new();
        let cur = self.cur;
        let mut visit = |s: &Stmt| match &s.kind {
            Kind::Assign(lhs, ..) => {
                // The dotted chain ending the place, and its head.
                let c = cur.dotted(lhs.clone());
                let head = cur.ident(c.start).filter(|_| !c.is_empty());
                if let Some(w) = head.filter(|_| !cur.punct(c.start.wrapping_sub(1), '.')) {
                    assigned.push((w.to_owned(), cur.text(&c)));
                }
            }
            Kind::Let(l) => {
                if let Some(n) = l.name.and_then(|k| cur.ident(k)) {
                    assigned.push((n.to_owned(), n.to_owned()));
                }
            }
            _ => {}
        };
        for (_, body) in arms {
            crate::ir::walk(std::slice::from_ref(body), &mut visit);
        }
        for (w, key) in assigned {
            self.clobber_facts(&w);
            self.st.env.insert(key, Interval::top());
            self.st.env.insert(w, Interval::top());
        }
    }

    // ----- expression evaluation ---------------------------------

    fn eval_quiet(&mut self, r: Range<usize>) -> Interval {
        self.quiet_depth += 1;
        let v = self.eval(r);
        self.quiet_depth -= 1;
        v
    }

    /// Evaluates an expression range to an interval, recording d13/
    /// d14/d15 facts at the operators it passes. Total and fuelled.
    fn eval(&mut self, mut r: Range<usize>) -> Interval {
        if !self.spend() {
            return Interval::top();
        }
        // Trim stray terminators and full paren wrapping.
        while r.end > r.start && self.cur.punct(r.end - 1, ';') {
            r.end -= 1;
        }
        while r.end > r.start
            && self.cur.punct(r.start, '(')
            && self.cur.skip_group(r.start, '(', ')') == r.end
        {
            r.start += 1;
            r.end -= 1;
        }
        if r.is_empty() {
            return Interval::top();
        }
        // Leading unary operators.
        if self.cur.punct(r.start, '-') && r.len() > 1 {
            return self.eval(r.start + 1..r.end).neg();
        }
        if (self.cur.punct(r.start, '!') && !self.cur.punct(r.start + 1, '='))
            || self.cur.punct(r.start, '*')
            || self.cur.punct(r.start, '&')
        {
            return self.eval(r.start + 1..r.end);
        }
        if let Some(v) = self.split_binary(&r) {
            return v;
        }
        self.eval_atom(&r)
    }

    /// Cuts `r` at its lowest-precedence depth-0 binary operator (the
    /// rightmost occurrence, matching left associativity; the leftmost
    /// comparison) and recurses.
    fn split_binary(&mut self, r: &Range<usize>) -> Option<Interval> {
        let (op, o) = PRECEDENCE
            .into_iter()
            .find_map(|op| Some((op, self.find_op(r, op)?)))?;
        let (lhs, rhs, line) = (r.start..o.start, o.end..r.end, self.cur.line(o.start));
        let sym = self.cur.text(&o);
        let v = match op {
            Op::Bool | Op::Range => {
                let _ = self.eval(lhs);
                let _ = self.eval(rhs);
                Interval::top()
            }
            Op::Cmp => {
                self.check_units(&lhs, &rhs, &sym, line);
                let _ = self.eval(lhs);
                let _ = self.eval(rhs);
                Interval::new(0, 1)
            }
            Op::Shift => {
                let lv = self.eval(lhs.clone());
                let rv = self.eval(rhs);
                if sym != "<<" {
                    return Some(Interval::top());
                }
                if let Some(key) = simple_key(self.cur, &lhs) {
                    self.check_shift(&key, &lv, &rv, line);
                }
                lv.shl(&rv)
            }
            Op::AddSub => {
                let lv = self.eval(lhs.clone());
                let rv = self.eval(rhs.clone());
                self.check_units(&lhs, &rhs, &sym, line);
                if sym == "-" {
                    self.check_sub(&lhs, &rhs, &lv, &rv, line);
                    return Some(lv.sub(&rv));
                }
                lv.add(&rv)
            }
            Op::MulDiv => {
                let lv = self.eval(lhs);
                let rv = self.eval(rhs.clone());
                if sym == "*" {
                    return Some(lv.mul(&rv));
                }
                self.check_div(&rhs, &rv, line);
                if sym == "/" {
                    div_interval(&lv, &rv)
                } else {
                    rem_interval(&lv, &rv)
                }
            }
            Op::Cast => {
                let lv = self.eval(lhs.clone());
                self.check_cast(&lhs, &lv, o.start)
            }
        };
        Some(v)
    }

    /// The width of operator `op` when it starts at token `k` of `r`.
    fn op_width(&self, op: Op, r: &Range<usize>, k: usize) -> Option<usize> {
        let c = self.cur;
        // After a value end, `-`, `*`, `<` … are binary, not unary or generic.
        let binary = k > r.start && c.value_end(k - 1);
        let pair = |a, b| c.punct(k, a) && c.punct(k + 1, b);
        let hit = match op {
            Op::Bool => pair('&', '&') || pair('|', '|'),
            Op::Cmp if pair('=', '=') || pair('!', '=') => return Some(2),
            Op::Cmp => {
                let angle = c.punct(k, '<') || c.punct(k, '>');
                // `<<`/`>>` is a shift; `<=`/`>=` is two tokens wide.
                let shift = pair('<', '<') || pair('>', '>');
                if angle && binary && !shift {
                    return Some(1 + usize::from(c.punct(k + 1, '=')));
                }
                false
            }
            Op::Range if pair('.', '.') && !c.punct(k.wrapping_sub(1), '.') => {
                return Some(2 + usize::from(c.punct(k + 2, '=')));
            }
            Op::Range => false,
            Op::Shift => (pair('<', '<') || pair('>', '>')) && binary,
            // `+=` and friends are handled upstream; `->` is no minus.
            Op::AddSub => {
                (c.punct(k, '+') || c.punct(k, '-'))
                    && binary
                    && !c.punct(k + 1, '=')
                    && !c.punct(k + 1, '>')
            }
            Op::MulDiv => {
                (c.punct(k, '*') || c.punct(k, '/') || c.punct(k, '%'))
                    && binary
                    && !c.punct(k + 1, '=')
            }
            Op::Cast => c.ident(k) == Some("as"),
        };
        let width = if matches!(op, Op::Bool | Op::Shift) {
            2
        } else {
            1
        };
        hit.then_some(width)
    }

    /// The tokens of the depth-0 operator `op` in `r` that
    /// [`Interp::split_binary`] cuts at: the leftmost comparison (a
    /// stray generic `<`/`>` must not win over it), else the rightmost
    /// match; an operator other than `&&`/`||` right of which a depth-0
    /// `|` (a closure) lies is not one.
    fn find_op(&self, r: &Range<usize>, op: Op) -> Option<Range<usize>> {
        let at = |k| self.op_width(op, r, k).is_some();
        let k = match op {
            Op::Cmp => Some(self.cur.depth0(r.start, r.end, at)).filter(|&k| k < r.end),
            _ => self.find_depth0(r, op != Op::Bool, at),
        }?;
        Some(k..k + self.op_width(op, r, k)?)
    }

    /// Rightmost depth-0 position in `r` matching `pred`. With
    /// `closures`, a depth-0 `|` right of it (a closure) gives `None`.
    fn find_depth0(
        &self,
        r: &Range<usize>,
        closures: bool,
        pred: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let bail = |k: usize| closures && self.cur.punct(k, '|');
        let mut last = None;
        // Never stops: visits every depth-0 token.
        self.cur.depth0(r.start, r.end, |k| {
            if bail(k) || pred(k) {
                last = Some(k);
            }
            false
        });
        last.filter(|&k| !bail(k))
    }

    /// Atoms: literals, idents, dotted chains, calls, indexing,
    /// `TY::MAX`, method intrinsics.
    fn eval_atom(&mut self, r: &Range<usize>) -> Interval {
        if r.len() == 1 {
            return match self.cur.kind(r.start) {
                Some(TokenKind::Number(text)) => parse_number(text),
                Some(TokenKind::Ident(w)) if w == "true" || w == "false" => Interval::new(0, 1),
                Some(TokenKind::Ident(w)) => self
                    .st
                    .env
                    .get(w.as_str())
                    .copied()
                    .unwrap_or_else(Interval::top),
                _ => Interval::top(),
            };
        }
        // `TY::MAX` / `TY::MIN`.
        if r.len() == 4 && self.cur.punct(r.start + 1, ':') && self.cur.punct(r.start + 2, ':') {
            if let (Some(ty), Some(which)) = (self.cur.ident(r.start), self.cur.ident(r.start + 3))
            {
                if let Some(range) = type_range(ty) {
                    match which {
                        "MAX" => return Interval::exact(range.hi),
                        "MIN" => return Interval::exact(range.lo),
                        _ => {}
                    }
                }
            }
        }
        // Trailing `?` / `.await`-ish postfix: peel and retry.
        if self.cur.punct(r.end - 1, '?') {
            return self.eval(r.start..r.end - 1);
        }
        // Trailing call/index group?
        if self.cur.punct(r.end - 1, ')') || self.cur.punct(r.end - 1, ']') {
            let (op, cl) = if self.cur.punct(r.end - 1, ')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let Some(open) = self
                .find_depth0(r, false, |k| self.cur.punct(k, op))
                .filter(|&open| open > r.start)
            else {
                return Interval::top();
            };
            // Evaluate each depth-0 comma-separated argument.
            let args = self.eval_args(open + 1..r.end - 1);
            if cl == ']' {
                let _ = self.eval(r.start..open);
                return Interval::top();
            }
            // Method call: `recv.name(args)`.
            if let Some(name) = self.cur.ident(open - 1) {
                if open >= 2 && self.cur.punct(open - 2, '.') {
                    let recv = r.start..open - 2;
                    return self.eval_method(&recv, name, &args);
                }
                // Free/path call: `name(args)` or `a::b::name(args)`.
                return self.eval_call(name, &(r.start..open - 1), &args, self.cur.line(open - 1));
            }
            return Interval::top();
        }
        // Dotted field chain (no trailing call): env lookup by text.
        let text = self.cur.text(r);
        self.st
            .env
            .get(&text)
            .copied()
            .unwrap_or_else(Interval::top)
    }

    fn eval_args(&mut self, r: Range<usize>) -> Vec<Interval> {
        self.cur
            .split0(r, ",")
            .into_iter()
            .filter(|a| !a.is_empty())
            .map(|a| self.eval(a))
            .collect()
    }

    /// Known interval-preserving methods; everything else is ⊤ (with
    /// args already evaluated for facts).
    fn eval_method(&mut self, recv: &Range<usize>, name: &str, args: &[Interval]) -> Interval {
        let rv = self.eval(recv.clone());
        let arg = args.first().copied().unwrap_or_else(Interval::top);
        match name {
            "len" if args.is_empty() => {
                let key = format!("{}.len", self.cur.text(recv));
                self.st
                    .env
                    .get(&key)
                    .copied()
                    .unwrap_or_else(|| Interval::new(0, U64_MAX))
            }
            "min" => Interval::new(rv.lo.min(arg.lo), rv.hi.min(arg.hi)),
            "max" => Interval::new(rv.lo.max(arg.lo), rv.hi.max(arg.hi)),
            "clamp" => {
                let hi = args.get(1).copied().unwrap_or_else(Interval::top);
                Interval::new(arg.lo, hi.hi)
            }
            "abs" => Interval::new(0, rv.hi.abs().max(rv.lo.abs())),
            "saturating_sub" if rv.lo >= 0 => Interval::new(
                (rv.lo.saturating_sub(arg.hi)).max(0),
                (rv.hi.saturating_sub(arg.lo)).max(0),
            ),
            _ => Interval::top(),
        }
    }

    /// Free/path call: summaries via the call graph by line, plus the
    /// `From`-style identity conversions.
    fn eval_call(
        &mut self,
        name: &str,
        path: &Range<usize>,
        args: &[Interval],
        line: u32,
    ) -> Interval {
        if (name == "from" || name == "try_from") && args.len() == 1 {
            // `u64::from(x)` etc: the value passes through; meet with
            // the target type when the path names one.
            if path.len() >= 3 {
                if let Some(ty) = self.cur.ident(path.start).and_then(type_range) {
                    return args[0].meet(&ty).unwrap_or(ty);
                }
            }
            return args[0];
        }
        let ret = self
            .call_rets
            .get(&line)
            .copied()
            .unwrap_or_else(Interval::top);
        ret
    }

    // ----- the three checks --------------------------------------

    /// d13: `a - b` on counter-typed operands must prove `b ≤ a`.
    fn check_sub(
        &mut self,
        lhs: &Range<usize>,
        rhs: &Range<usize>,
        lv: &Interval,
        rv: &Interval,
        line: u32,
    ) {
        if self.quiet_depth > 0 {
            return;
        }
        // Signed or float arithmetic may legitimately go negative.
        if lv.lo < 0 {
            return;
        }
        if self.cur.float_evidence(lhs) || self.cur.float_evidence(rhs) {
            return;
        }
        let counterish = |r: &Range<usize>| self.cur.any_ident(r.clone(), is_counterish);
        if !counterish(lhs) && !counterish(rhs) {
            return;
        }
        // Proofs: interval, identity, or a dominating relational guard.
        if rv.hi <= lv.lo {
            return;
        }
        let lt = self.cur.text(lhs);
        let rt = self.cur.text(rhs);
        if lt == rt || self.st.rel_ge.contains(&(lt.clone(), rt.clone())) {
            return;
        }
        self.record(
            Family::Counter,
            line,
            format!(
                "counter subtraction `{} - {}`: rhs ∈ {rv} not proven ≤ lhs (lhs ∈ {lv}); \
                 guard the order, or use saturating_sub/checked_sub",
                clip(&lt),
                clip(&rt)
            ),
        );
    }

    /// d13 shifts: flag only a *proven* out-of-width shift amount.
    fn check_shift(&mut self, key: &str, lv: &Interval, rv: &Interval, line: u32) {
        if self.quiet_depth > 0 {
            return;
        }
        let width = self
            .tys
            .get(key)
            .map(|t| if t.hi > u32::MAX as i128 { 64 } else { 32 })
            .unwrap_or(64);
        if rv.lo >= width {
            self.record(
                Family::Counter,
                line,
                format!(
                    "shift of `{}` by ∈ {rv}: every execution shifts past the {width}-bit \
                     width (lhs ∈ {lv})",
                    clip(key)
                ),
            );
        }
    }

    /// d13 casts: a cast proven to truncate is a d13 site. A narrow cast
    /// near a counter name is also a d6 site unless its operand is
    /// proven to fit.
    fn check_cast(&mut self, operand: &Range<usize>, lv: &Interval, at: usize) -> Interval {
        let ty = self.cur.ident(at + 1).unwrap_or("");
        let Some(tr) = type_range(ty) else {
            // `as f64` and friends: value-preserving for our purposes.
            return *lv;
        };
        let line = self.cur.line(at);
        let truncates = lv.lo > tr.hi || lv.hi < tr.lo;
        if truncates {
            self.record(
                Family::Counter,
                line,
                format!(
                    "`{} as {ty}` truncates: value ∈ {lv} lies outside {ty}'s range {tr} in \
                     every execution",
                    clip(&self.cur.text(operand)),
                ),
            );
        }
        // Any counter/timestamp-named identifier earlier on the same
        // line marks a narrow cast suspicious.
        let culprit = (0..at)
            .rev()
            .take_while(|&j| self.cur.line(j) == line)
            .find_map(|j| self.cur.ident(j).filter(|w| is_counterish(w)));
        let fits = lv.lo >= tr.lo && lv.hi <= tr.hi;
        if let Some(name) = culprit.filter(|_| !fits && tr.hi <= u32::MAX as i128) {
            let family = if truncates {
                Family::TruncatingCast
            } else {
                Family::Cast
            };
            let what = format!(
                "truncating cast `as {ty}` near counter/timestamp `{name}`; widen or \
                 bound-check explicitly"
            );
            self.record(family, line, what);
        }
        lv.meet(&tr).unwrap_or(tr)
    }

    /// d14: the denominator interval must exclude zero, or a
    /// dominating guard must have proven the expression nonzero.
    ///
    /// Scope (DESIGN §12): integer-derived denominators only — counts,
    /// lengths, counters, and their `as f64` views. Pure float
    /// expressions (`1.0 + e^x`, EMA states, learned weights) are out:
    /// interval arithmetic over transcendental float math proves
    /// nothing, and flagging every float division would bury the real
    /// divide-by-count hazards the rule exists for.
    fn check_div(&mut self, den: &Range<usize>, dv: &Interval, line: u32) {
        if self.quiet_depth > 0 {
            return;
        }
        if !dv.contains_zero() {
            return;
        }
        if !self.int_evidence(den, false) {
            return;
        }
        // A guard-proven expression clears the check.
        let dt = self.cur.text(den);
        if self.st.nonzero.contains(&dt) {
            return;
        }
        self.record(
            Family::Division,
            line,
            format!(
                "denominator `{}` ∈ {dv} may be zero; dominate it with a nonzero \
                 guard (`== 0` early-return, `> 0`, `!= 0`) or `.max(1)`",
                clip(&dt)
            ),
        );
    }

    /// d15: `+`/`-`/comparison across two *different* inferred units.
    fn check_units(&mut self, lhs: &Range<usize>, rhs: &Range<usize>, op: &str, line: u32) {
        if self.quiet_depth > 0 {
            return;
        }
        let (Some(ld), Some(rd)) = (self.span_dimension(lhs), self.span_dimension(rhs)) else {
            return;
        };
        if ld == rd {
            return;
        }
        self.record(
            Family::Units,
            line,
            format!(
                "unit mismatch: `{}` carries {ld} but `{}` carries {rd} across `{op}`; \
                 route one side through a named conversion helper",
                clip(&self.cur.text(lhs)),
                clip(&self.cur.text(rhs)),
            ),
        );
    }

    /// The dimension an operand carries: the first dimensioned
    /// identifier in its span, unless a conversion-helper call
    /// (`to_*` / `from_*` / `*_to_*` / `as_*`) launders it.
    fn span_dimension(&self, r: &Range<usize>) -> Option<&'static str> {
        let mut dim = None;
        for k in r.clone() {
            if let Some(w) = self.cur.ident(k) {
                if self.cur.punct(k + 1, '(') && is_conversion_name(w) {
                    return None;
                }
                if dim.is_none() {
                    dim = dimension_of(w);
                }
            }
        }
        dim
    }

    /// Whether a span is integer-derived: it mentions a
    /// declared-integer variable, an int-derived `let` binding, or a
    /// `.len()` call — and carries no float literal or float-typed
    /// ident (an `as f64`/`as f32` *view* of an integer is fine).
    /// `literals_count` is true when classifying a `let` rhs (so `let
    /// mut count = 0;` marks `count` int-derived) and false for
    /// denominators, where a bare literal divisor is either non-zero
    /// (clean) or a compile error.
    fn int_evidence(&self, r: &Range<usize>, literals_count: bool) -> bool {
        self.cur.int_evidence(r, |k| match self.cur.kind(k) {
            Some(TokenKind::Number(_)) => literals_count,
            Some(TokenKind::Ident(s)) => {
                self.tys.contains_key(s.as_str())
                    || self.st.int_vars.contains(s.as_str())
                    || (s == "len" && self.cur.punct(k + 1, '('))
            }
            _ => false,
        })
    }
}

/// The binary operators [`Interp::split_binary`] cuts at, lowest
/// precedence first.
const PRECEDENCE: [Op; 7] = [
    Op::Bool,
    Op::Cmp,
    Op::Range,
    Op::Shift,
    Op::AddSub,
    Op::MulDiv,
    Op::Cast,
];

/// A binary operator class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// `&&`, `||`.
    Bool,
    /// `==`, `!=`, `<`, `<=`, `>`, `>=`.
    Cmp,
    /// `..`, `..=`.
    Range,
    /// `<<`, `>>`.
    Shift,
    /// `+`, `-`.
    AddSub,
    /// `*`, `/`, `%`.
    MulDiv,
    /// `as`.
    Cast,
}

fn negate(op: &str) -> &'static str {
    match op {
        "<" => ">=",
        "<=" => ">",
        ">" => "<=",
        ">=" => "<",
        "==" => "!=",
        _ => "==",
    }
}

fn mirror(op: &str) -> &'static str {
    match op {
        "<" => ">",
        "<=" => ">=",
        ">" => "<",
        ">=" => "<=",
        "==" => "==",
        _ => "!=",
    }
}

/// When `r` is a simple environment key — a bare identifier or a
/// dotted ident chain — its normalized text.
fn simple_key(cur: Cursor<'_>, r: &Range<usize>) -> Option<String> {
    let chain = !r.is_empty() && r.len() <= 9 && cur.dotted(r.clone()) == *r;
    chain.then(|| cur.text(r))
}

/// Whether `r` is the literal `0` / `0.0` / `0usize`-style zero.
fn is_zero_literal(cur: Cursor<'_>, r: &Range<usize>) -> bool {
    if r.len() != 1 {
        return false;
    }
    match cur.kind(r.start) {
        Some(TokenKind::Number(text)) => parse_number(text) == Interval::exact(0),
        _ => false,
    }
}

/// Clips long expression texts for messages.
fn clip(s: &str) -> String {
    if s.chars().count() <= 48 {
        return s.to_owned();
    }
    let head: String = s.chars().take(47).collect();
    format!("{head}…")
}

/// Whether whole-word `name` occurs in the normalized key `text`.
fn word_in(text: &str, name: &str) -> bool {
    text.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|w| w == name)
}

/// Parses an integer literal (decimal/hex/octal/binary, `_`
/// separators, type suffixes). Float literals map off zero unless
/// they are exactly zero — only their zero-membership matters (d14).
fn parse_number(text: &str) -> Interval {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if is_float_number(text) {
        let mantissa = cleaned.split(['e', 'E', 'f']).next().unwrap_or("");
        let nonzero = mantissa.chars().any(|c| ('1'..='9').contains(&c));
        return if nonzero {
            Interval::exact(1)
        } else {
            Interval::exact(0)
        };
    }
    let (radix, digits) = if let Some(d) = cleaned.strip_prefix("0x") {
        (16, d)
    } else if let Some(d) = cleaned.strip_prefix("0o") {
        (8, d)
    } else if let Some(d) = cleaned.strip_prefix("0b") {
        (2, d)
    } else {
        (10, cleaned.as_str())
    };
    // Strip a type suffix (`u8`, `usize`, `i64`…).
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    match i128::from_str_radix(&digits[..end], radix) {
        Ok(v) => Interval::exact(v),
        Err(_) => Interval::top(),
    }
}

/// Names that read as explicit unit conversions and therefore launder
/// a dimension for d15.
fn is_conversion_name(name: &str) -> bool {
    name.contains("_to_")
        || name.starts_with("to_")
        || name.starts_with("from_")
        || name.starts_with("as_")
        || name.contains("convert")
}

/// The inferred dimension of an identifier, from the catalog of
/// suffix/prefix markers. Suffixes win over prefixes so `wall_ms`
/// reads as milliseconds.
#[must_use]
pub fn dimension_of(ident: &str) -> Option<&'static str> {
    const SUFFIXES: &[(&str, &str)] = &[
        ("_ms", "milliseconds"),
        ("_days", "days"),
        ("_bytes", "bytes"),
        ("_gib", "gibibytes"),
        ("_ratio", "a ratio"),
    ];
    for (suf, dim) in SUFFIXES {
        if ident.ends_with(suf) && ident.len() > suf.len() {
            return Some(dim);
        }
    }
    const PREFIXES: &[(&str, &str)] = &[("wall_", "wall-clock time"), ("n_", "a count")];
    for (pre, dim) in PREFIXES {
        if ident.starts_with(pre) && ident.len() > pre.len() {
            return Some(dim);
        }
    }
    None
}

fn div_interval(lv: &Interval, rv: &Interval) -> Interval {
    if rv.contains_zero() {
        return Interval::top();
    }
    let ps = [
        lv.lo.checked_div(rv.lo),
        lv.lo.checked_div(rv.hi),
        lv.hi.checked_div(rv.lo),
        lv.hi.checked_div(rv.hi),
    ];
    let mut lo = i128::MAX;
    let mut hi = i128::MIN;
    for p in ps.into_iter().flatten() {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    if lo > hi {
        return Interval::top();
    }
    Interval::new(lo, hi)
}

fn rem_interval(lv: &Interval, rv: &Interval) -> Interval {
    if rv.contains_zero() || lv.lo < 0 {
        return Interval::top();
    }
    let m = rv.hi.abs().max(rv.lo.abs());
    Interval::new(0, m.saturating_sub(1).max(0))
}
