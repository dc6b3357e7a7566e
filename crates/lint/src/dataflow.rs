//! Intra-procedural dataflow: per-function def-use chains and
//! statement-order facts read from the function's [`crate::ir`].
//!
//! Three rule families consume this layer:
//!
//! * **d10 float-reduction-order** — order-sensitive `f64`
//!   accumulation (`+=`, `x = x + …`, running-mean updates) into a
//!   variable *captured* by a closure passed to an `mfpa-par`
//!   combinator. The serial in-order fold of `map_reduce` (its last
//!   closure argument) is exempt; accumulators local to the closure
//!   are per-item state and stay clean.
//! * **d11 codec-symmetry** — each hand-rolled encoder/decoder pair
//!   (`put_X`/`get_X`, `encode`/`decode`, `to_bytes`/`from_bytes`) is
//!   reduced to its sequence of canonical byte ops (the
//!   `mfpa_bytes` vocabulary: `u8`/`u32`/`u64`/`i64`/`f64`/
//!   `counter`/`flag`/`len`), loops become repetition groups, branch
//!   arms collapse when they agree, sub-codec calls inline — and the
//!   two flattened sequences must match width-for-width, field order
//!   included.
//! * **d12 decoder-bounds** — inside decode-reachable functions every
//!   slice index or subslice must be dominated by a length guard on
//!   the same value chain (a `base.len()`/`base.is_empty()` mention,
//!   a comparison constraining an index operand, or a bounded
//!   `for x in a..b` binder).
//!
//! Like the lexer and parser this layer is *total*: any byte sequence
//! produces a (possibly empty) set of sites, never a panic. The
//! property tests in `tests/tokenizer_props.rs` drive it with
//! arbitrary bytes.

use crate::ir::{Closure, FnIr, Kind, Let, Stmt};
use crate::lexer::{Cursor, Token};
use crate::parser::FnItem;
use crate::rules::{Family, Site};
use std::collections::BTreeSet;
use std::ops::Range;

/// `mfpa-par` combinators whose closure arguments run the per-item
/// path. All of them preserve submission order on the output side,
/// which is exactly why a *captured* accumulator is the bug: it turns
/// an order-preserving map into an order-dependent reduction.
const PAR_COMBINATORS: &[&str] = &[
    "ordered_map",
    "ordered_collect",
    "ordered_map_mut",
    "map_reduce",
];

/// The canonical byte-op vocabulary (methods of
/// `mfpa_bytes::ByteWriter`/`ByteReader`). `len` is the reader-side
/// bounded length prefix and needs an argument — a bare `.len()` is
/// the std slice method, not a codec op.
const CODEC_VOCAB: &[&str] = &["u8", "u32", "u64", "i64", "f64", "counter", "flag", "len"];

/// Byte-width class of one codec op. Encoder and decoder sequences
/// must agree class-for-class: `counter`, `len`, `u64` and `i64` all
/// move 8 little-endian integer bytes and are interchangeable;
/// `f64` is kept distinct because a float read of an integer write is
/// a real decode bug even at equal width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `u8` / `flag` — one byte.
    B1,
    /// `u32` — four bytes.
    B4,
    /// `u64` / `i64` / `counter` / `len` — eight integer bytes.
    B8,
    /// `f64` — eight bytes interpreted as IEEE-754 bits.
    F8,
}

impl OpClass {
    fn of(method: &str) -> OpClass {
        match method {
            "u8" | "flag" => OpClass::B1,
            "u32" => OpClass::B4,
            "f64" => OpClass::F8,
            _ => OpClass::B8,
        }
    }

    fn label(self) -> &'static str {
        match self {
            OpClass::B1 => "u8",
            OpClass::B4 => "u32",
            OpClass::B8 => "u64",
            OpClass::F8 => "f64",
        }
    }
}

/// One node of a codec op tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecOp {
    /// A primitive vocabulary call (`.u32(…)`, `.f64(…)`, …).
    Prim {
        /// Byte-width class of the op.
        class: OpClass,
        /// Source line of the call.
        line: u32,
    },
    /// A call to another codec-named function, inlined at comparison
    /// time.
    Call {
        /// Callee name, resolved within the same file.
        name: String,
        /// Source line of the call.
        line: u32,
    },
    /// A `for`/`while`/`loop` body: repeated an unknown number of
    /// times, so only the body sequence is compared.
    Rep(Vec<CodecOp>),
    /// `if`/`match` arms that do not agree (agreeing arms collapse to
    /// their common sequence; error-`return` arms are dropped first).
    Branch(Vec<Vec<CodecOp>>),
}

/// A function recognized as one side of a codec pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecFn {
    /// Function name (`put_serial`, `decode`, `to_bytes`, …).
    pub name: String,
    /// Pairing key shared by both sides (`serial` for
    /// `put_serial`/`get_serial`; `""` for `encode`/`decode`).
    pub pair_key: String,
    /// Writer side (`put_`/`encode`/`to_bytes`) vs reader side.
    pub is_encoder: bool,
    /// Line of the `fn` keyword, for unpaired-codec findings.
    pub line: u32,
    /// The op tree extracted from the body.
    pub ops: Vec<CodecOp>,
}

/// Tags the d10 and d12 sites of one function into `sites` and returns
/// its codec op tree when it is one side of a codec pair, over the
/// comment-free token stream and the function's IR. Total: never
/// panics, any input.
pub fn analyze_fn(code: &[Token], f: &FnItem, ir: &FnIr, sites: &mut Vec<Site>) -> Option<CodecFn> {
    let flow = Flow {
        cur: Cursor::new(code, f.body.clone()),
        ir,
        lets: ir.lets(),
    };
    flow.par_accums(sites);
    flow.unguarded_indexes(sites);
    flow.codec(f)
}

struct Flow<'a> {
    cur: Cursor<'a>,
    ir: &'a FnIr,
    /// Every `let`, in token order.
    lets: Vec<(Range<usize>, &'a Let)>,
}

impl Flow<'_> {
    /// The statement of the first `let` binding `name`, if any
    /// (first definition wins — good enough for guard lookups).
    fn def_statement(&self, name: &str) -> Option<Range<usize>> {
        let (span, _) = self
            .lets
            .iter()
            .find(|(_, l)| l.binders.iter().any(|&k| self.cur.ident(k) == Some(name)))?;
        Some(self.ir.stmt_of(span.start))
    }

    /// Whether parameter `name` is declared with a float type.
    fn float_param(&self, name: &str) -> bool {
        let mut params = self.ir.params.iter();
        params.any(|(n, ty)| n == name && self.cur.float_evidence(ty))
    }

    // -- d10: captured float accumulation in par closures -------------

    fn par_accums(&self, sites: &mut Vec<Site>) {
        let mut i = self.cur.start;
        while i < self.cur.end {
            let is_comb = self
                .cur
                .ident(i)
                .is_some_and(|s| PAR_COMBINATORS.contains(&s));
            if is_comb && self.cur.punct(i + 1, '(') {
                let comb = self.cur.ident(i).unwrap_or_default().to_owned();
                let call_end = self.cur.skip_group(i + 1, '(', ')');
                // The closures passed as arguments (not those nested in
                // another closure's body).
                let mut closures: Vec<&Closure> = Vec::new();
                for c in &self.ir.closures {
                    let pipe = c.params.start.wrapping_sub(1);
                    let nested = closures.last().is_some_and(|p| pipe < p.body.end);
                    if pipe >= i + 2 && pipe < call_end.saturating_sub(1) && !nested {
                        closures.push(c);
                    }
                }
                // The last closure of map_reduce is the serial in-order
                // fold — the one place a float accumulator is sound.
                let keep = if comb == "map_reduce" && !closures.is_empty() {
                    &closures[..closures.len() - 1]
                } else {
                    &closures[..]
                };
                for cl in keep {
                    self.accums_in_closure(cl, &comb, sites);
                }
                i = call_end.max(i + 1);
                continue;
            }
            i += 1;
        }
    }

    fn accums_in_closure(&self, cl: &Closure, comb: &str, sites: &mut Vec<Site>) {
        // Parameters and every `let` binder in the body are
        // closure-local, tuple patterns included.
        let ident = |&k: &usize| self.cur.ident(k);
        let mut locals: BTreeSet<&str> = cl.binders.iter().filter_map(ident).collect();
        for (span, l) in &self.lets {
            if cl.body.contains(&span.start) {
                locals.extend(l.binders.iter().filter_map(ident));
            }
        }
        let body = &cl.body;
        let mut k = body.start;
        while k < body.end {
            if let Some(name) = self.cur.value_name(k) {
                // `x += …` / `x -= …` / `x *= …`, or `x = x + …`.
                let compound = (self.cur.punct(k + 1, '+')
                    || self.cur.punct(k + 1, '-')
                    || self.cur.punct(k + 1, '*'))
                    && self.cur.punct(k + 2, '=');
                let rebind = self.cur.punct(k + 1, '=')
                    && !self.cur.punct(k + 2, '=')
                    && self.cur.ident(k + 2) == Some(name)
                    && (self.cur.punct(k + 3, '+')
                        || self.cur.punct(k + 3, '-')
                        || self.cur.punct(k + 3, '*'));
                if (compound || rebind) && !locals.contains(name) && self.accum_is_float(name, k) {
                    let what = format!(
                        "order-sensitive float accumulation into captured `{name}` inside a \
                         `{comb}` closure (runs per item, not in serial fold order)"
                    );
                    sites.push(Site::new(Family::ParAccum, self.cur.line(k), what));
                    // One site per accumulator per closure is enough.
                    k = self.ir.stmt_of(k).end.max(k + 1);
                    continue;
                }
            }
            k += 1;
        }
    }

    /// Float evidence for an accumulation at token `at`: in the
    /// accumulating statement itself, in the accumulator's `let`
    /// definition, or in its parameter type.
    fn accum_is_float(&self, name: &str, at: usize) -> bool {
        if self.cur.float_evidence(&self.ir.stmt_of(at)) {
            return true;
        }
        if let Some(def) = self.def_statement(name) {
            if self.cur.float_evidence(&def) {
                return true;
            }
        }
        self.float_param(name)
    }

    // -- d11: codec op extraction -------------------------------------

    fn codec(&self, f: &FnItem) -> Option<CodecFn> {
        let (pair_key, is_encoder) = codec_role(&f.name)?;
        // Every repetition and branch in the tree holds an op, so a
        // non-empty tree touches the byte vocabulary.
        let ops = self.ops_of(&self.ir.body, 0);
        if ops.is_empty() {
            return None;
        }
        Some(CodecFn {
            name: f.name.clone(),
            pair_key,
            is_encoder,
            line: f.line,
            ops,
        })
    }

    /// Op extraction folded over statements. Loops become
    /// [`CodecOp::Rep`]; `if`/`match` arms are collapsed when they
    /// agree after error-`return` arms are dropped.
    fn ops_of(&self, stmts: &[Stmt], depth: usize) -> Vec<CodecOp> {
        let mut ops = Vec::new();
        if depth > 24 {
            return ops;
        }
        for s in stmts {
            self.stmt_ops(s, depth, &mut ops);
        }
        ops
    }

    fn stmt_ops(&self, s: &Stmt, depth: usize, ops: &mut Vec<CodecOp>) {
        match &s.kind {
            Kind::For(_, _, body) | Kind::While(_, body) => {
                let inner = self.ops_of(body, depth + 1);
                if !inner.is_empty() {
                    ops.push(CodecOp::Rep(inner));
                }
            }
            Kind::If(..) => {
                let mut arms = Vec::new();
                // Condition reads (`if rd.u32()? != MAGIC { … }`) happen
                // unconditionally, before any arm runs.
                self.if_ops(s, depth, ops, &mut arms);
                push_branch(ops, arms);
            }
            Kind::Match(scrutinee, arms) => {
                // Ops in the scrutinee (`match rd.u8()? { … }`) come
                // before any arm.
                ops.extend(self.linear_ops(scrutinee.clone()));
                let arms = arms
                    .iter()
                    .filter(|(_, body)| !self.range_has_return(&body.span))
                    .map(|(_, body)| self.ops_of(std::slice::from_ref(body), depth + 1))
                    .collect();
                push_branch(ops, arms);
            }
            Kind::Block(b) => ops.extend(self.ops_of(b, depth)),
            _ => {
                // Linear ops in token order, folding nested statements
                // (initializers, closure bodies, inner blocks) in place.
                let mut kids = Vec::new();
                s.each_child(&mut |c| kids.push(c));
                for c in &self.ir.closures {
                    if s.span.start <= c.body.start && c.body.end <= s.span.end {
                        kids.extend(&c.stmts);
                    }
                }
                kids.sort_by_key(|k| k.span.start);
                let mut k = s.span.start;
                for kid in kids {
                    if kid.span.start >= k {
                        ops.extend(self.linear_ops(k..kid.span.start));
                        ops.extend(self.ops_of(std::slice::from_ref(kid), depth));
                        k = kid.span.end;
                    }
                }
                ops.extend(self.linear_ops(k..s.span.end));
            }
        }
    }

    /// Folds an `if … [else if …]* [else …]` chain: every condition's
    /// ops go to `cond_ops`, each arm without an error `return` to
    /// `arms`. Condition reads are emitted unconditionally: the first
    /// one always runs, and codec chains only ever read in the first
    /// condition.
    fn if_ops(
        &self,
        s: &Stmt,
        depth: usize,
        cond_ops: &mut Vec<CodecOp>,
        arms: &mut Vec<Vec<CodecOp>>,
    ) {
        let Kind::If(cond, then, els) = &s.kind else {
            return;
        };
        cond_ops.extend(self.linear_ops(cond.clone()));
        if !then.iter().any(|t| self.range_has_return(&t.span)) {
            arms.push(self.ops_of(then, depth + 1));
        }
        match els.as_deref() {
            Some(e) if matches!(e.kind, Kind::If(..)) => self.if_ops(e, depth, cond_ops, arms),
            Some(e) if !self.range_has_return(&e.span) => {
                arms.push(self.ops_of(std::slice::from_ref(e), depth + 1));
            }
            _ => {}
        }
    }

    /// Primitive or sub-codec-call op at token `i`, if any.
    fn op_at(&self, i: usize) -> Option<CodecOp> {
        let name = self.cur.ident(i)?;
        if !self.cur.punct(i + 1, '(') {
            return None;
        }
        let method = i > 0 && self.cur.punct(i - 1, '.');
        if method && CODEC_VOCAB.contains(&name) {
            // `.len()` with no argument is std's length, not the
            // reader's bounded length prefix.
            if name == "len" && self.cur.punct(i + 2, ')') {
                return None;
            }
            return Some(CodecOp::Prim {
                class: OpClass::of(name),
                line: self.cur.line(i),
            });
        }
        if codec_role(name).is_some() {
            return Some(CodecOp::Call {
                name: name.to_owned(),
                line: self.cur.line(i),
            });
        }
        None
    }

    /// Ops in a flat range, no control-flow recursion (used for
    /// scrutinees and `if` conditions).
    fn linear_ops(&self, r: Range<usize>) -> Vec<CodecOp> {
        let mut out = Vec::new();
        for i in r {
            if let Some(op) = self.op_at(i) {
                out.push(op);
            }
        }
        out
    }

    fn range_has_return(&self, r: &Range<usize>) -> bool {
        self.cur.any_ident(r.clone(), |w| w == "return")
    }

    // -- d12: unguarded slice indexing --------------------------------

    fn unguarded_indexes(&self, sites: &mut Vec<Site>) {
        let mut i = self.cur.start;
        while i < self.cur.end {
            // A `[` after a value (not an array literal, attribute,
            // keyword or `!x[…]`) indexes it.
            let indexes =
                i > 0 && self.cur.value_end(i - 1) && !self.cur.punct(i.wrapping_sub(2), '!');
            if self.cur.punct(i, '[') && indexes {
                let c = self.cur.dotted(0..i);
                let base = (!c.is_empty()).then(|| self.cur.text(&c));
                let close = self.cur.skip_group(i, '[', ']');
                // Identifiers feeding the index, less method names.
                let operands: BTreeSet<&str> = (i + 1..close.saturating_sub(1))
                    .filter_map(|k| {
                        self.cur
                            .value_name(k)
                            .filter(|_| !self.cur.punct(k + 1, '('))
                    })
                    .collect();
                if !self.is_guarded(&base, &operands, i) {
                    let shown = match &base {
                        Some(b) => format!("`{b}`"),
                        None => "an expression result".to_owned(),
                    };
                    let what = format!(
                        "slice indexing into {shown} with no dominating length guard on the \
                         same value chain"
                    );
                    sites.push(Site::new(Family::Index, self.cur.line(i), what));
                }
                i = close.max(i + 1);
                continue;
            }
            i += 1;
        }
    }

    /// Dominating-guard check for an index site at token `at`.
    ///
    /// Guarded when (a) an earlier-or-same statement mentions
    /// `base.len`/`base.is_empty` on the indexed chain (or on the
    /// chain its `let` definition derives from), or (b) every index
    /// operand is either compared (`<`/`>`) in a dominating statement
    /// or bound by a dominating `for x in a..b` range header.
    fn is_guarded(&self, base: &Option<String>, operands: &BTreeSet<&str>, at: usize) -> bool {
        let prefix = self.cur.start..self.ir.stmt_of(at).end;
        if let Some(b) = base {
            if self.length_mention(b, &prefix) {
                return true;
            }
            // One def-use hop: `let b = <parent>…;` — a guard on the
            // parent covers the derived binding.
            if let Some(def) = self.def_statement(b.split('.').next().unwrap_or(b)) {
                if def.start < at {
                    for k in def.clone() {
                        if let Some(parent) = self.cur.value_name(k) {
                            if parent != b && self.length_mention(parent, &prefix) {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        !operands.is_empty() && operands.iter().all(|x| self.operand_guarded(x, &prefix))
    }

    /// Any occurrence of `chain.len` / `chain.is_empty` within `r`.
    fn length_mention(&self, chain: &str, r: &Range<usize>) -> bool {
        let parts: Vec<&str> = chain.split('.').collect();
        'outer: for k in r.clone() {
            let mut i = k;
            for (px, p) in parts.iter().enumerate() {
                if self.cur.ident(i) != Some(p) {
                    continue 'outer;
                }
                if px + 1 < parts.len() {
                    if !self.cur.punct(i + 1, '.') {
                        continue 'outer;
                    }
                    i += 2;
                }
            }
            if self.cur.punct(i + 1, '.')
                && matches!(self.cur.ident(i + 2), Some("len" | "is_empty"))
            {
                return true;
            }
        }
        false
    }

    fn operand_guarded(&self, x: &str, prefix: &Range<usize>) -> bool {
        for k in prefix.clone() {
            if self.cur.ident(k) != Some(x) {
                continue;
            }
            let stmt = self.ir.stmt_of(k);
            // Comparison guard: the statement constrains some value
            // with `<` or `>` (covers `<=`, `>=`).
            if stmt
                .clone()
                .any(|j| self.cur.punct(j, '<') || self.cur.punct(j, '>'))
            {
                return true;
            }
            // Range-loop binder: `for x in a..b { … }`.
            if self.cur.ident(stmt.start) == Some("for")
                && self.cur.ident(stmt.start + 1) == Some(x)
                && stmt
                    .clone()
                    .any(|j| self.cur.punct(j, '.') && self.cur.punct(j + 1, '.'))
            {
                return true;
            }
        }
        false
    }
}

/// Collapses a set of branch arms into the op stream: empty arms
/// vanish, agreeing arms inline their common sequence, disagreeing
/// arms survive as a [`CodecOp::Branch`] barrier.
fn push_branch(ops: &mut Vec<CodecOp>, mut arms: Vec<Vec<CodecOp>>) {
    arms.retain(|a| !a.is_empty());
    match arms.len() {
        0 => {}
        1 => ops.extend(arms.remove(0)),
        _ => {
            let all_equal = arms.windows(2).all(|w| ops_shape_eq(&w[0], &w[1]));
            if all_equal {
                ops.extend(arms.remove(0));
            } else {
                ops.push(CodecOp::Branch(arms));
            }
        }
    }
}

/// Structural equality ignoring line numbers.
fn ops_shape_eq(a: &[CodecOp], b: &[CodecOp]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (CodecOp::Prim { class: ca, .. }, CodecOp::Prim { class: cb, .. }) => ca == cb,
            (CodecOp::Call { name: na, .. }, CodecOp::Call { name: nb, .. }) => na == nb,
            (CodecOp::Rep(ia), CodecOp::Rep(ib)) => ops_shape_eq(ia, ib),
            (CodecOp::Branch(aa), CodecOp::Branch(ab)) => {
                aa.len() == ab.len() && aa.iter().zip(ab).all(|(x2, y2)| ops_shape_eq(x2, y2))
            }
            _ => false,
        })
}

/// Name convention for codec pairing. `write_`/`read_` prefixes are
/// deliberately excluded: `write_checkpoint` writes a *file*, not a
/// field sequence.
fn codec_role(name: &str) -> Option<(String, bool)> {
    match name {
        "encode" => return Some((String::new(), true)),
        "decode" => return Some((String::new(), false)),
        "to_bytes" => return Some(("bytes".to_owned(), true)),
        "from_bytes" => return Some(("bytes".to_owned(), false)),
        _ => {}
    }
    for (prefix, enc) in [
        ("put_", true),
        ("encode_", true),
        ("get_", false),
        ("decode_", false),
    ] {
        if let Some(rest) = name.strip_prefix(prefix) {
            if !rest.is_empty() {
                return Some((rest.to_owned(), enc));
            }
        }
    }
    None
}

/// Pairs the codec functions of one file and verifies each pair's
/// flattened op sequences mirror each other. `codecs` carries each
/// function's index in the file; every d11 site comes back with the
/// index of the function it belongs to (the encoder of a pair, whose
/// decoder is the site's `pair`).
pub fn check_codecs(codecs: &[(usize, CodecFn)]) -> Vec<(usize, Site)> {
    let mut issues = Vec::new();
    // Sub-codec calls referenced anywhere mark non-roots.
    let mut called: BTreeSet<&str> = BTreeSet::new();
    for (_, c) in codecs {
        collect_called(&c.ops, &mut called);
    }
    // Group by pairing key, preserving file order.
    let mut keys: Vec<&str> = Vec::new();
    for (_, c) in codecs {
        if !keys.contains(&c.pair_key.as_str()) {
            keys.push(&c.pair_key);
        }
    }
    for key in keys {
        let enc: Vec<&(usize, CodecFn)> = codecs
            .iter()
            .filter(|(_, c)| c.pair_key == key && c.is_encoder)
            .collect();
        let dec: Vec<&(usize, CodecFn)> = codecs
            .iter()
            .filter(|(_, c)| c.pair_key == key && !c.is_encoder)
            .collect();
        match (enc.as_slice(), dec.as_slice()) {
            ([(eix, e)], [(dix, d)]) => {
                let (mut enc_budget, mut dec_budget) = (FLATTEN_BUDGET, FLATTEN_BUDGET);
                let ef = flatten(&e.ops, codecs, 0, &mut enc_budget);
                let df = flatten(&d.ops, codecs, 0, &mut dec_budget);
                if let Some((detail, enc_line, dec_line)) = first_divergence(&ef, &df) {
                    let what = format!(
                        "write sequence of `{}` (line {enc_line}) does not mirror the read \
                         sequence of `{}` (line {dec_line}): {detail}",
                        e.name, d.name
                    );
                    let mut site = Site::new(Family::Codec, enc_line, what);
                    site.pair = Some(*dix);
                    issues.push((*eix, site));
                }
            }
            (one_side, []) | ([], one_side) => {
                for (ix, c) in one_side {
                    if !called.contains(c.name.as_str()) {
                        let (side, wanted) = if c.is_encoder {
                            ("encoder", "decoder")
                        } else {
                            ("decoder", "encoder")
                        };
                        let what = format!(
                            "codec {side} `{}` has no {wanted} counterpart in this file",
                            c.name
                        );
                        issues.push((*ix, Site::new(Family::Codec, c.line, what)));
                    }
                }
            }
            _ => {} // several functions on each side: ambiguous, skip
        }
    }
    issues
}

fn collect_called<'a>(ops: &'a [CodecOp], out: &mut BTreeSet<&'a str>) {
    for op in ops {
        match op {
            CodecOp::Call { name, .. } => {
                out.insert(name);
            }
            CodecOp::Rep(inner) => collect_called(inner, out),
            CodecOp::Branch(arms) => {
                for a in arms {
                    collect_called(a, out);
                }
            }
            CodecOp::Prim { .. } => {}
        }
    }
}

/// Ops one flattened sequence may visit. Inlining a codec that calls
/// itself (or a sibling) several times grows exponentially with the
/// depth cut, so the budget, not the depth, bounds the work.
const FLATTEN_BUDGET: usize = 1 << 16;

/// Inlines sub-codec calls (resolved by name within the file) and
/// re-collapses branches. Unresolvable calls contribute nothing;
/// recursion is cut at depth 16 and after `budget` visited ops.
fn flatten(
    ops: &[CodecOp],
    codecs: &[(usize, CodecFn)],
    depth: usize,
    budget: &mut usize,
) -> Vec<CodecOp> {
    let mut out = Vec::new();
    if depth > 16 {
        return out;
    }
    for op in ops {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        match op {
            CodecOp::Prim { .. } => out.push(op.clone()),
            CodecOp::Call { name, .. } => {
                if let Some((_, c)) = codecs.iter().find(|(_, c)| &c.name == name) {
                    out.extend(flatten(&c.ops, codecs, depth + 1, budget));
                }
            }
            CodecOp::Rep(inner) => {
                let f = flatten(inner, codecs, depth + 1, budget);
                if !f.is_empty() {
                    out.push(CodecOp::Rep(f));
                }
            }
            CodecOp::Branch(arms) => {
                let flat: Vec<Vec<CodecOp>> = arms
                    .iter()
                    .map(|a| flatten(a, codecs, depth + 1, budget))
                    .collect();
                push_branch(&mut out, flat);
            }
        }
    }
    out
}

fn op_line(op: &CodecOp) -> u32 {
    match op {
        CodecOp::Prim { line, .. } | CodecOp::Call { line, .. } => *line,
        CodecOp::Rep(inner) => inner.first().map(op_line).unwrap_or(0),
        CodecOp::Branch(arms) => arms
            .first()
            .and_then(|a| a.first())
            .map(op_line)
            .unwrap_or(0),
    }
}

fn op_label(op: &CodecOp) -> String {
    match op {
        CodecOp::Prim { class, .. } => class.label().to_owned(),
        CodecOp::Call { name, .. } => format!("call to `{name}`"),
        CodecOp::Rep(_) => "a repeated group".to_owned(),
        CodecOp::Branch(_) => "diverging branches".to_owned(),
    }
}

/// First field where the two flattened sequences disagree, as
/// (detail, encoder line, decoder line). Unresolvable
/// [`CodecOp::Branch`] barriers end the comparison without a finding
/// (conservative: no false positives from control flow we cannot
/// align).
fn first_divergence(enc: &[CodecOp], dec: &[CodecOp]) -> Option<(String, u32, u32)> {
    let mut field = 0usize;
    for (e, d) in enc.iter().zip(dec) {
        field += 1;
        match (e, d) {
            (CodecOp::Branch(_), _) | (_, CodecOp::Branch(_)) => return None,
            (
                CodecOp::Prim {
                    class: ce,
                    line: le,
                },
                CodecOp::Prim {
                    class: cd,
                    line: ld,
                },
            ) => {
                if ce != cd {
                    return Some((
                        format!(
                            "field {field}: encoder writes {} but decoder reads {}",
                            ce.label(),
                            cd.label()
                        ),
                        *le,
                        *ld,
                    ));
                }
            }
            (CodecOp::Rep(ie), CodecOp::Rep(id)) => {
                if let Some((detail, le, ld)) = first_divergence(ie, id) {
                    return Some((format!("inside a repeated group, {detail}"), le, ld));
                }
            }
            _ => {
                return Some((
                    format!(
                        "field {field}: encoder writes {} but decoder reads {}",
                        op_label(e),
                        op_label(d)
                    ),
                    op_line(e),
                    op_line(d),
                ));
            }
        }
    }
    match enc.len().cmp(&dec.len()) {
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => {
            let extra = &enc[dec.len()];
            Some((
                format!(
                    "field {}: encoder writes {} past the decoder's last read",
                    dec.len() + 1,
                    op_label(extra)
                ),
                op_line(extra),
                dec.last().map(op_line).unwrap_or(0),
            ))
        }
        std::cmp::Ordering::Less => {
            let extra = &dec[enc.len()];
            Some((
                format!(
                    "field {}: decoder reads {} past the encoder's last write",
                    enc.len() + 1,
                    op_label(extra)
                ),
                enc.last().map(op_line).unwrap_or(0),
                op_line(extra),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, parser};

    /// Each function's d10/d12 sites and codec op tree.
    fn flows(src: &str) -> Vec<(Vec<Site>, Option<CodecFn>)> {
        let tokens = lexer::tokenize(src);
        let code: Vec<Token> = tokens
            .into_iter()
            .filter(|t| !matches!(t.kind, lexer::TokenKind::Comment { .. }))
            .collect();
        let parsed = parser::parse(&code);
        parsed
            .functions
            .iter()
            .map(|f| {
                let mut sites = Vec::new();
                let codec = analyze_fn(&code, f, &crate::ir::build(&code, f), &mut sites);
                (sites, codec)
            })
            .collect()
    }

    fn of(sites: &[Site], family: Family) -> Vec<&Site> {
        sites.iter().filter(|s| s.family == family).collect()
    }

    #[test]
    fn captured_float_accum_in_par_closure_is_flagged() {
        let src = "fn f(xs: &[f64], w: Workers) -> f64 {\n\
                   let mut total = 0.0;\n\
                   let _ = ordered_map(xs, w, |_, &x| { total += x; x });\n\
                   total\n}\n";
        let f = flows(src);
        assert_eq!(of(&f[0].0, Family::ParAccum).len(), 1);
        assert!(of(&f[0].0, Family::ParAccum)[0].what.contains("total"));
    }

    #[test]
    fn closure_local_accum_is_clean() {
        let src = "fn f(xs: &[Vec<f64>], w: Workers) -> Vec<f64> {\n\
                   ordered_map(xs, w, |_, row| {\n\
                   let mut s = 0.0;\n\
                   for v in row { s += v; }\n\
                   s\n}) }\n";
        assert!(of(&flows(src)[0].0, Family::ParAccum).is_empty());
    }

    #[test]
    fn integer_accum_without_float_evidence_is_clean() {
        let src = "fn f(xs: &[u64], w: Workers) -> u64 {\n\
                   let mut n = 0u64;\n\
                   let _ = ordered_map(xs, w, |_, _x| { n += 1; 0 });\n\
                   n\n}\n";
        assert!(of(&flows(src)[0].0, Family::ParAccum).is_empty());
    }

    #[test]
    fn map_reduce_fold_closure_is_exempt() {
        let src = "fn f(xs: &[f64], w: Workers) -> f64 {\n\
                   let mut acc = 0.0;\n\
                   map_reduce(xs, w, |x| x * 2.0, 0.0, |a, b| { acc += b; a + b });\n\
                   acc\n}\n";
        assert!(of(&flows(src)[0].0, Family::ParAccum).is_empty());
    }

    #[test]
    fn running_mean_rebind_is_flagged() {
        let src = "fn f(xs: &[f64], w: Workers) -> f64 {\n\
                   let mut mean = 0.0;\n\
                   let _ = ordered_collect(4, w, |i| { mean = mean + (xs[i] - mean); i });\n\
                   mean\n}\n";
        assert_eq!(of(&flows(src)[0].0, Family::ParAccum).len(), 1);
    }

    #[test]
    fn codec_pair_with_swapped_fields_diverges() {
        let src = "fn put_h(w: &mut ByteWriter, h: &H) { w.u32(h.a); w.u64(h.b); }\n\
                   fn get_h(r: &mut ByteReader) -> Result<H, String> {\n\
                   Ok(H { b: r.u64()?, a: r.u32()? }) }\n";
        let f = flows(src);
        let codecs: Vec<(usize, CodecFn)> = f
            .iter()
            .enumerate()
            .filter_map(|(i, fl)| fl.1.clone().map(|c| (i, c)))
            .collect();
        let issues = check_codecs(&codecs);
        assert_eq!(issues.len(), 1);
        let (_, site) = &issues[0];
        assert!(
            site.what.contains("does not mirror"),
            "expected mismatch, got {site:?}"
        );
        assert!(site.what.contains("field 1"), "{}", site.what);
    }

    #[test]
    fn symmetric_pair_with_loops_and_subcalls_is_clean() {
        let src = "fn put_inner(w: &mut W, x: &X) { w.u8(x.t); w.f64(x.v); }\n\
                   fn get_inner(r: &mut R) -> Result<X, String> {\n\
                   Ok(X { t: r.u8()?, v: r.f64()? }) }\n\
                   fn encode(w: &mut W, xs: &[X]) {\n\
                   w.counter(xs.len());\n\
                   for x in xs { put_inner(w, x); } }\n\
                   fn decode(r: &mut R) -> Result<Vec<X>, String> {\n\
                   let n = r.len(9)?;\n\
                   let mut out = Vec::new();\n\
                   for _ in 0..n { out.push(get_inner(r)?); }\n\
                   Ok(out) }\n";
        let f = flows(src);
        let codecs: Vec<(usize, CodecFn)> = f
            .iter()
            .enumerate()
            .filter_map(|(i, fl)| fl.1.clone().map(|c| (i, c)))
            .collect();
        assert_eq!(codecs.len(), 4);
        assert!(check_codecs(&codecs).is_empty());
    }

    #[test]
    fn unpaired_root_encoder_is_reported_but_subcodecs_are_not() {
        let src = "fn put_inner(w: &mut W, x: &X) { w.u8(x.t); }\n\
                   fn encode(w: &mut W, xs: &[X]) { for x in xs { put_inner(w, x); } }\n";
        let f = flows(src);
        let codecs: Vec<(usize, CodecFn)> = f
            .iter()
            .enumerate()
            .filter_map(|(i, fl)| fl.1.clone().map(|c| (i, c)))
            .collect();
        let issues = check_codecs(&codecs);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0]
            .1
            .what
            .starts_with("codec encoder `encode` has no decoder"));
    }

    #[test]
    fn error_return_arms_do_not_break_symmetry() {
        let src = "fn put_t(w: &mut W, t: &T) {\n\
                   match t.kind { 0 => { w.u8(0); w.u64(t.a); } _ => { w.u8(1); w.u64(t.b); } } }\n\
                   fn get_t(r: &mut R) -> Result<T, String> {\n\
                   let k = r.u8()?;\n\
                   let v = r.u64()?;\n\
                   match k { 0 | 1 => Ok(T::new(k, v)), bad => return Err(format!(\"{bad}\")) } }\n";
        let f = flows(src);
        let codecs: Vec<(usize, CodecFn)> = f
            .iter()
            .enumerate()
            .filter_map(|(i, fl)| fl.1.clone().map(|c| (i, c)))
            .collect();
        assert!(check_codecs(&codecs).is_empty());
    }

    #[test]
    fn unguarded_index_is_flagged_and_guarded_is_not() {
        let src = "fn bad(data: &[u8]) -> u8 { data[4] }\n\
                   fn good(data: &[u8]) -> u8 {\n\
                   if data.len() < 5 { return 0; }\n\
                   data[4] }\n";
        let f = flows(src);
        assert_eq!(of(&f[0].0, Family::Index).len(), 1);
        assert!(of(&f[1].0, Family::Index).is_empty());
    }

    #[test]
    fn range_loop_binder_counts_as_a_guard() {
        let src = "fn f(xs: &[u64]) -> u64 {\n\
                   let mut s = 0;\n\
                   for i in 0..xs.len() { s += xs[i]; }\n\
                   s }\n";
        assert!(of(&flows(src)[0].0, Family::Index).is_empty());
    }

    #[test]
    fn comparison_guard_on_operand_counts() {
        let src = "fn f(xs: &[u64], i: usize) -> u64 {\n\
                   if i >= xs.len() { return 0; }\n\
                   xs[i] }\n";
        assert!(of(&flows(src)[0].0, Family::Index).is_empty());
    }

    #[test]
    fn split_at_derived_binding_inherits_the_parent_guard() {
        let src = "fn f(data: &[u8]) -> u8 {\n\
                   if data.len() < 9 { return 0; }\n\
                   let (head, _tail) = data.split_at(8);\n\
                   head[0] }\n";
        assert!(of(&flows(src)[0].0, Family::Index).is_empty());
    }

    #[test]
    fn self_recursive_codecs_flatten_within_a_budget() {
        // Four self-calls per level: 4^16 ops without the budget.
        let src = "fn encode_x(w: &mut W) { w.u8(1); encode_x(w); encode_x(w); encode_x(w); encode_x(w); }\n\
                   fn decode_x(r: &mut R) { r.u8()?; decode_x(r); decode_x(r); decode_x(r); decode_x(r); }\n";
        let codecs: Vec<(usize, CodecFn)> = flows(src)
            .into_iter()
            .enumerate()
            .filter_map(|(i, fl)| fl.1.map(|c| (i, c)))
            .collect();
        assert_eq!(codecs.len(), 2);
        assert!(check_codecs(&codecs).is_empty());
    }

    #[test]
    fn totality_on_garbage_tokens() {
        for src in [
            "fn f( { [ ) } ] |,| if else match => .. for",
            "fn put_x(w){ w.u32( for { .f64( } match { => , => } }",
            "fn f(){ ordered_map(|,|{ x += ",
            "fn f(){ a[b[c[d[",
        ] {
            let _ = flows(src);
        }
    }
}
