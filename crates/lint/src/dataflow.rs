//! Intra-procedural dataflow: per-function def-use chains and
//! statement-order facts on top of the [`crate::parser`] item tree.
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
//! produces a (possibly empty) [`FnFlow`], never a panic. The
//! property tests in `tests/tokenizer_props.rs` drive it with
//! arbitrary bytes.

use crate::lexer::{Cursor, Token, TokenKind};
use crate::parser::FnItem;
use crate::taint::Site;
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
    /// Declaration line, for unpaired-codec findings.
    pub line: u32,
    /// The op tree extracted from the body.
    pub ops: Vec<CodecOp>,
}

/// Dataflow facts for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnFlow {
    /// d10 sites: captured float accumulation inside par closures.
    pub par_accums: Vec<Site>,
    /// d11 raw material: the codec op tree, when this function is
    /// codec-named and touches the byte vocabulary.
    pub codec: Option<CodecFn>,
    /// d12 sites: slice indexing with no dominating length guard.
    /// Reported only for decode-reachable functions.
    pub unguarded_indexes: Vec<Site>,
}

/// One d11 problem within a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecIssue {
    /// A codec root (not called by any other codec fn) with no
    /// opposite-side partner.
    Unpaired {
        /// Index of the function in the file's function list.
        fn_ix: usize,
        /// Declaration line.
        line: u32,
        /// Function name.
        name: String,
        /// Writer side?
        is_encoder: bool,
    },
    /// An encoder/decoder pair whose flattened sequences diverge.
    Mismatch {
        /// Index of the encoder in the file's function list.
        enc_ix: usize,
        /// Index of the decoder in the file's function list.
        dec_ix: usize,
        /// Line of the first diverging op on the encoder side.
        enc_line: u32,
        /// Line of the first diverging op on the decoder side.
        dec_line: u32,
        /// Human-readable description of the divergence.
        detail: String,
    },
}

/// Computes the dataflow facts for one function over the comment-free
/// token stream. Total: never panics, any input.
pub fn analyze_fn(code: &[Token], f: &FnItem) -> FnFlow {
    let flow = Flow {
        cur: Cursor::new(code, f.body.clone()),
        sig: f.sig.clone(),
    };
    FnFlow {
        par_accums: flow.par_accums(),
        codec: flow.codec(&f.name),
        unguarded_indexes: flow.unguarded_indexes(),
    }
}

struct Flow<'a> {
    cur: Cursor<'a>,
    sig: Range<usize>,
}

/// Number tokens that denote floats: a decimal point, an `f32`/`f64`
/// suffix, or an exponent. An `e`/`E` counts as an exponent only next
/// to a digit — integer suffixes (`0usize`) carry a bare `e`.
pub(crate) fn is_float_number(text: &str) -> bool {
    if text.starts_with("0x") {
        return false;
    }
    if text.contains('.') || text.contains("f32") || text.contains("f64") {
        return true;
    }
    let b = text.as_bytes();
    b.windows(2)
        .any(|w| (w[0] == b'e' || w[0] == b'E') && w[1].is_ascii_digit())
        || (b.len() >= 2
            && (b[b.len() - 1] == b'e' || b[b.len() - 1] == b'E')
            && b[b.len() - 2].is_ascii_digit())
}

fn is_value_keyword(word: &str) -> bool {
    matches!(
        word,
        "self"
            | "true"
            | "false"
            | "as"
            | "in"
            | "if"
            | "else"
            | "match"
            | "for"
            | "while"
            | "loop"
            | "let"
            | "mut"
            | "ref"
            | "return"
            | "break"
            | "continue"
            | "move"
            | "fn"
            | "usize"
            | "u8"
            | "u16"
            | "u32"
            | "u64"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "f32"
            | "f64"
            | "bool"
    )
}

impl Flow<'_> {
    /// The `let` statement defining `name`, if any, searching the whole
    /// body (first definition wins — good enough for guard lookups).
    /// Tuple and struct patterns bind several names at once, so the
    /// whole pattern side (up to the depth-0 `=`) is searched.
    fn def_statement(&self, name: &str) -> Option<Range<usize>> {
        let mut i = self.cur.start;
        while i < self.cur.end {
            if self.cur.ident(i) == Some("let") {
                let stmt = self.cur.statement(i);
                let mut depth = 0usize;
                for j in i + 1..stmt.end {
                    match self.cur.kind(j) {
                        Some(TokenKind::Punct('(' | '[' | '{')) => depth += 1,
                        Some(TokenKind::Punct(')' | ']' | '}')) => {
                            depth = depth.saturating_sub(1);
                        }
                        Some(TokenKind::Punct('=')) if depth == 0 => break,
                        Some(TokenKind::Ident(s)) if s == name => return Some(stmt),
                        _ => {}
                    }
                }
            }
            i += 1;
        }
        None
    }

    /// Float evidence inside a token range: a float literal, an
    /// `f64`/`f32` type mention, or an `as f64` cast.
    fn has_float_evidence(&self, r: &Range<usize>) -> bool {
        for k in r.clone() {
            match self.cur.kind(k) {
                Some(TokenKind::Number(text)) if is_float_number(text) => return true,
                Some(TokenKind::Ident(s)) if s == "f64" || s == "f32" => return true,
                _ => {}
            }
        }
        false
    }

    /// Whether parameter `name` is declared with a float type.
    fn float_param(&self, name: &str) -> bool {
        let mut i = self.sig.start;
        while i < self.sig.end {
            if self.cur.ident(i) == Some(name)
                && self.cur.punct(i + 1, ':')
                && !self.cur.punct(i + 2, ':')
            {
                let mut k = i + 2;
                let mut depth = 0usize;
                while k < self.sig.end {
                    match self.cur.kind(k) {
                        Some(TokenKind::Punct('<' | '(' | '[')) => depth += 1,
                        Some(TokenKind::Punct(')')) if depth == 0 => break,
                        Some(TokenKind::Punct('>' | ')' | ']')) => depth = depth.saturating_sub(1),
                        Some(TokenKind::Punct(',')) if depth == 0 => break,
                        Some(TokenKind::Ident(s)) if s == "f64" || s == "f32" => return true,
                        _ => {}
                    }
                    k += 1;
                }
            }
            i += 1;
        }
        false
    }

    // -- d10: captured float accumulation in par closures -------------

    fn par_accums(&self) -> Vec<Site> {
        let mut sites = Vec::new();
        let mut i = self.cur.start;
        while i < self.cur.end {
            let is_comb = self
                .cur
                .ident(i)
                .is_some_and(|s| PAR_COMBINATORS.contains(&s));
            if is_comb && self.cur.punct(i + 1, '(') {
                let comb = self.cur.ident(i).unwrap_or_default().to_owned();
                let call_end = self.cur.skip_group(i + 1, '(', ')');
                let closures = self.closures_in(i + 2, call_end.saturating_sub(1));
                // The last closure of map_reduce is the serial in-order
                // fold — the one place a float accumulator is sound.
                let keep = if comb == "map_reduce" && !closures.is_empty() {
                    &closures[..closures.len() - 1]
                } else {
                    &closures[..]
                };
                for cl in keep {
                    self.accums_in_closure(cl, &comb, &mut sites);
                }
                i = call_end.max(i + 1);
                continue;
            }
            i += 1;
        }
        sites
    }

    /// Closure spans (params ∪ body) inside `start..end` at any depth.
    fn closures_in(&self, start: usize, end: usize) -> Vec<(Range<usize>, Range<usize>)> {
        let mut out = Vec::new();
        let mut i = start;
        while i < end.min(self.cur.end) {
            // A closure's opening `|` follows `,`, `(`, `=` or `move`;
            // a binary `|` follows a value. `||` (empty params) is two
            // adjacent pipes.
            let opens_closure = self.cur.punct(i, '|')
                && (i == start
                    || self.cur.punct(i - 1, ',')
                    || self.cur.punct(i - 1, '(')
                    || self.cur.punct(i - 1, '=')
                    || self.cur.ident(i - 1) == Some("move"));
            if opens_closure {
                let params_end = if self.cur.punct(i + 1, '|') {
                    i + 1
                } else {
                    let mut k = i + 1;
                    while k < end && !self.cur.punct(k, '|') {
                        k += 1;
                    }
                    k
                };
                let mut body_start = params_end + 1;
                // Return-type annotation: `|x| -> T { … }` — the body
                // is the block after the type, not the type itself.
                if self.cur.punct(body_start, '-') && self.cur.punct(body_start + 1, '>') {
                    body_start = self.next_block_open(body_start + 2, end);
                }
                let body_end = if self.cur.punct(body_start, '{') {
                    self.cur.skip_group(body_start, '{', '}')
                } else {
                    // Expression body: up to a depth-0 `,` or the
                    // unbalanced closer that ends the surrounding
                    // argument list.
                    let mut depth = 0usize;
                    let mut k = body_start;
                    while k < end {
                        match self.cur.kind(k) {
                            Some(TokenKind::Punct('(' | '[' | '{')) => depth += 1,
                            Some(TokenKind::Punct(')' | ']' | '}')) => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            Some(TokenKind::Punct(',')) if depth == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    k
                };
                out.push((i + 1..params_end, body_start..body_end));
                i = body_end.max(i + 1);
                continue;
            }
            i += 1;
        }
        out
    }

    fn accums_in_closure(
        &self,
        (params, body): &(Range<usize>, Range<usize>),
        comb: &str,
        sites: &mut Vec<Site>,
    ) {
        let mut locals: BTreeSet<String> = BTreeSet::new();
        for k in params.clone() {
            if let Some(name) = self.cur.ident(k) {
                if !is_value_keyword(name) {
                    locals.insert(name.to_owned());
                }
            }
        }
        let mut k = body.start;
        while k < body.end {
            if self.cur.ident(k) == Some("let") {
                // Every name on the pattern side (up to the depth-0
                // `=`) is closure-local, tuple patterns included.
                let stmt = self.cur.statement(k);
                let mut depth = 0usize;
                for j in k + 1..stmt.end.min(body.end) {
                    match self.cur.kind(j) {
                        Some(TokenKind::Punct('(' | '[' | '{')) => depth += 1,
                        Some(TokenKind::Punct(')' | ']' | '}')) => {
                            depth = depth.saturating_sub(1);
                        }
                        Some(TokenKind::Punct('=')) if depth == 0 => break,
                        Some(TokenKind::Ident(s)) if !is_value_keyword(s) => {
                            locals.insert(s.clone());
                        }
                        _ => {}
                    }
                }
            }
            k += 1;
        }
        let mut k = body.start;
        while k < body.end {
            if let Some(name) = self.cur.ident(k) {
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
                if (compound || rebind)
                    && !is_value_keyword(name)
                    && !locals.contains(name)
                    && self.accum_is_float(name, k)
                {
                    sites.push(Site {
                        line: self.cur.line(k),
                        what: format!(
                            "order-sensitive float accumulation into captured `{name}` \
                             inside a `{comb}` closure (runs per item, not in serial fold order)"
                        ),
                    });
                    // One site per accumulator per closure is enough.
                    let stmt = self.cur.statement(k);
                    k = stmt.end.max(k + 1);
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
        if self.has_float_evidence(&self.cur.statement(at)) {
            return true;
        }
        if let Some(def) = self.def_statement(name) {
            if self.has_float_evidence(&def) {
                return true;
            }
        }
        self.float_param(name)
    }

    // -- d11: codec op extraction -------------------------------------

    fn codec(&self, fn_name: &str) -> Option<CodecFn> {
        let (pair_key, is_encoder) = codec_role(fn_name)?;
        let ops = self.parse_ops(self.cur.start..self.cur.end, 0);
        let mut prims = 0usize;
        let mut calls = 0usize;
        count_ops(&ops, &mut prims, &mut calls);
        if prims == 0 && calls == 0 {
            return None;
        }
        Some(CodecFn {
            name: fn_name.to_owned(),
            pair_key,
            is_encoder,
            line: self.cur.line(self.cur.start),
            ops,
        })
    }

    /// Recursive-descent op extraction over a token range. Loops
    /// become [`CodecOp::Rep`]; `if`/`match` arms are collapsed when
    /// they agree after error-`return` arms are dropped.
    fn parse_ops(&self, r: Range<usize>, depth: usize) -> Vec<CodecOp> {
        let mut ops = Vec::new();
        if depth > 24 {
            return ops;
        }
        let mut i = r.start;
        while i < r.end {
            match self.cur.ident(i) {
                Some("for") | Some("while") | Some("loop") => {
                    let open = self.next_block_open(i + 1, r.end);
                    let end = self.cur.skip_group(open, '{', '}');
                    let inner = self.parse_ops(open + 1..end.saturating_sub(1), depth + 1);
                    if !inner.is_empty() {
                        ops.push(CodecOp::Rep(inner));
                    }
                    i = end.max(i + 1);
                    continue;
                }
                Some("if") => {
                    let (cond_ops, arms, next) = self.parse_if(i, r.end, depth);
                    // Condition reads (`if rd.u32()? != MAGIC { … }`)
                    // happen unconditionally, before any arm runs.
                    ops.extend(cond_ops);
                    push_branch(&mut ops, arms);
                    i = next.max(i + 1);
                    continue;
                }
                Some("match") => {
                    let open = self.next_block_open(i + 1, r.end);
                    // Ops in the scrutinee (`match rd.u8()? { … }`) come
                    // before any arm.
                    ops.extend(self.linear_ops(i + 1..open));
                    let end = self.cur.skip_group(open, '{', '}');
                    let arms = self.parse_match_arms(open + 1..end.saturating_sub(1), depth);
                    push_branch(&mut ops, arms);
                    i = end.max(i + 1);
                    continue;
                }
                _ => {}
            }
            if let Some(op) = self.op_at(i) {
                ops.push(op);
            }
            i += 1;
        }
        ops
    }

    /// The next `{` that opens a block at paren/bracket depth 0
    /// (skipping closures' `|…|` is unnecessary: codec headers do not
    /// carry block-bearing closures before the body).
    fn next_block_open(&self, from: usize, end: usize) -> usize {
        let mut depth = 0usize;
        let mut i = from;
        while i < end {
            match self.cur.kind(i) {
                Some(TokenKind::Punct('(' | '[')) => depth += 1,
                Some(TokenKind::Punct(')' | ']')) => depth = depth.saturating_sub(1),
                Some(TokenKind::Punct('{')) if depth == 0 => return i,
                _ => {}
            }
            i += 1;
        }
        end
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

    /// Parses `if … { } [else if …{ }]* [else { }]`; returns the
    /// unconditional condition ops, the kept arm op-lists, and the
    /// index just past the construct. Arms containing a `return` are
    /// error exits and are dropped — they do not contribute to the
    /// success-path byte sequence. Condition reads are emitted
    /// unconditionally: the first one always runs, and codec chains
    /// only ever read in the first condition.
    fn parse_if(
        &self,
        at: usize,
        end: usize,
        depth: usize,
    ) -> (Vec<CodecOp>, Vec<Vec<CodecOp>>, usize) {
        let mut cond_ops = Vec::new();
        let mut arms = Vec::new();
        let mut i = at;
        loop {
            // `i` is at `if` (or the start of an `else` tail handled
            // below). Condition ops are linear.
            let open = self.next_block_open(i + 1, end);
            cond_ops.extend(self.linear_ops(i + 1..open));
            let body_end = self.cur.skip_group(open, '{', '}');
            let body = open + 1..body_end.saturating_sub(1);
            if !self.range_has_return(&body) {
                arms.push(self.parse_ops(body, depth + 1));
            }
            i = body_end;
            if self.cur.ident(i) == Some("else") {
                if self.cur.ident(i + 1) == Some("if") {
                    i += 1;
                    continue;
                }
                let eopen = self.next_block_open(i + 1, end);
                let ebody_end = self.cur.skip_group(eopen, '{', '}');
                let ebody = eopen + 1..ebody_end.saturating_sub(1);
                if !self.range_has_return(&ebody) {
                    arms.push(self.parse_ops(ebody, depth + 1));
                }
                return (cond_ops, arms, ebody_end);
            }
            return (cond_ops, arms, i);
        }
    }

    fn parse_match_arms(&self, r: Range<usize>, depth: usize) -> Vec<Vec<CodecOp>> {
        let mut arms = Vec::new();
        let mut i = r.start;
        while i < r.end {
            // Pattern: up to a depth-0 `=>`.
            let mut pdepth = 0usize;
            while i < r.end {
                match self.cur.kind(i) {
                    Some(TokenKind::Punct('(' | '[' | '{')) => pdepth += 1,
                    Some(TokenKind::Punct(')' | ']' | '}')) => pdepth = pdepth.saturating_sub(1),
                    Some(TokenKind::Punct('=')) if pdepth == 0 && self.cur.punct(i + 1, '>') => {
                        i += 2;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
            if i >= r.end {
                break;
            }
            // Body: a block, or an expression up to a depth-0 `,`.
            let body = if self.cur.punct(i, '{') {
                let e = self.cur.skip_group(i, '{', '}');
                let b = i + 1..e.saturating_sub(1);
                i = e;
                b
            } else {
                let start = i;
                let mut bdepth = 0usize;
                while i < r.end {
                    match self.cur.kind(i) {
                        Some(TokenKind::Punct('(' | '[' | '{')) => bdepth += 1,
                        Some(TokenKind::Punct(')' | ']' | '}')) => {
                            bdepth = bdepth.saturating_sub(1);
                        }
                        Some(TokenKind::Punct(',')) if bdepth == 0 => break,
                        _ => {}
                    }
                    i += 1;
                }
                let b = start..i;
                i += 1; // past the comma
                b
            };
            if !self.range_has_return(&body) {
                arms.push(self.parse_ops(body, depth + 1));
            }
        }
        arms
    }

    fn range_has_return(&self, r: &Range<usize>) -> bool {
        r.clone().any(|k| self.cur.ident(k) == Some("return"))
    }

    // -- d12: unguarded slice indexing --------------------------------

    fn unguarded_indexes(&self) -> Vec<Site> {
        let mut sites = Vec::new();
        let mut i = self.cur.start;
        while i < self.cur.end {
            if self.cur.punct(i, '[') && self.index_base_end(i) {
                let base = self.receiver_chain(i);
                let close = self.cur.skip_group(i, '[', ']');
                let operand_idents = self.index_operands(i + 1..close.saturating_sub(1));
                if !self.is_guarded(&base, &operand_idents, i) {
                    let shown = match &base {
                        Some(b) => format!("`{b}`"),
                        None => "an expression result".to_owned(),
                    };
                    sites.push(Site {
                        line: self.cur.line(i),
                        what: format!(
                            "slice indexing into {shown} with no dominating length guard \
                             on the same value chain"
                        ),
                    });
                }
                i = close.max(i + 1);
                continue;
            }
            i += 1;
        }
        sites
    }

    /// Whether the `[` at `i` indexes a value (preceded by an
    /// identifier, `)` or `]`) rather than opening an array literal,
    /// attribute or macro body.
    fn index_base_end(&self, i: usize) -> bool {
        if i == 0 {
            return false;
        }
        if self.cur.punct(i - 1, ')') || self.cur.punct(i - 1, ']') {
            return true;
        }
        match self.cur.ident(i - 1) {
            // A keyword or a macro name (`ident!`) is not a value base.
            Some(w) => !(is_value_keyword(w) || i >= 2 && self.cur.punct(i - 2, '!')),
            None => false,
        }
    }

    /// The dotted receiver chain directly before `[`, e.g.
    /// `self.data` for `self.data[…]`. `None` when the base is a call
    /// or index result.
    fn receiver_chain(&self, open: usize) -> Option<String> {
        if open == 0 || self.cur.punct(open - 1, ')') || self.cur.punct(open - 1, ']') {
            return None;
        }
        let mut parts = Vec::new();
        let mut i = open;
        while let Some(name) = (i >= 1).then(|| self.cur.ident(i - 1)).flatten() {
            parts.push(name.to_owned());
            if i < 2 || !self.cur.punct(i - 2, '.') {
                break;
            }
            i -= 2;
        }
        if parts.is_empty() {
            return None;
        }
        parts.reverse();
        Some(parts.join("."))
    }

    /// Identifiers that feed the index expression (excluding keywords
    /// and method names).
    fn index_operands(&self, r: Range<usize>) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for k in r {
            if let Some(name) = self.cur.ident(k) {
                if is_value_keyword(name) {
                    continue;
                }
                // A name followed by `(` is a method/function, not a
                // value to bound.
                if self.cur.punct(k + 1, '(') {
                    continue;
                }
                out.insert(name.to_owned());
            }
        }
        out
    }

    /// Dominating-guard check for an index site at token `at`.
    ///
    /// Guarded when (a) an earlier-or-same statement mentions
    /// `base.len`/`base.is_empty` on the indexed chain (or on the
    /// chain its `let` definition derives from), or (b) every index
    /// operand is either compared (`<`/`>`) in a dominating statement
    /// or bound by a dominating `for x in a..b` range header.
    fn is_guarded(&self, base: &Option<String>, operands: &BTreeSet<String>, at: usize) -> bool {
        let prefix = self.cur.start..self.cur.statement(at).end;
        if let Some(b) = base {
            if self.length_mention(b, &prefix) {
                return true;
            }
            // One def-use hop: `let b = <parent>…;` — a guard on the
            // parent covers the derived binding.
            if let Some(def) = self.def_statement(b.split('.').next().unwrap_or(b)) {
                if def.start < at {
                    for k in def.clone() {
                        if let Some(parent) = self.cur.ident(k) {
                            if parent != b
                                && !is_value_keyword(parent)
                                && self.length_mention(parent, &prefix)
                            {
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
            let stmt = self.cur.statement(k);
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

fn count_ops(ops: &[CodecOp], prims: &mut usize, calls: &mut usize) {
    for op in ops {
        match op {
            CodecOp::Prim { .. } => *prims += 1,
            CodecOp::Call { .. } => *calls += 1,
            CodecOp::Rep(inner) => count_ops(inner, prims, calls),
            CodecOp::Branch(arms) => {
                for a in arms {
                    count_ops(a, prims, calls);
                }
            }
        }
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
/// flattened op sequences mirror each other. `codecs` carries the
/// in-file function index for chain rendering.
pub fn check_codecs(codecs: &[(usize, CodecFn)]) -> Vec<CodecIssue> {
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
                let ef = flatten(&e.ops, codecs, 0);
                let df = flatten(&d.ops, codecs, 0);
                if let Some((detail, enc_line, dec_line)) = first_divergence(&ef, &df) {
                    issues.push(CodecIssue::Mismatch {
                        enc_ix: *eix,
                        dec_ix: *dix,
                        enc_line,
                        dec_line,
                        detail,
                    });
                }
            }
            (one_side, []) | ([], one_side) => {
                for (ix, c) in one_side {
                    if !called.contains(c.name.as_str()) {
                        issues.push(CodecIssue::Unpaired {
                            fn_ix: *ix,
                            line: c.line,
                            name: c.name.clone(),
                            is_encoder: c.is_encoder,
                        });
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

/// Inlines sub-codec calls (resolved by name within the file) and
/// re-collapses branches. Unresolvable calls contribute nothing;
/// recursion is cut at depth 16.
fn flatten(ops: &[CodecOp], codecs: &[(usize, CodecFn)], depth: usize) -> Vec<CodecOp> {
    let mut out = Vec::new();
    if depth > 16 {
        return out;
    }
    for op in ops {
        match op {
            CodecOp::Prim { .. } => out.push(op.clone()),
            CodecOp::Call { name, .. } => {
                if let Some((_, c)) = codecs.iter().find(|(_, c)| &c.name == name) {
                    out.extend(flatten(&c.ops, codecs, depth + 1));
                }
            }
            CodecOp::Rep(inner) => {
                let f = flatten(inner, codecs, depth + 1);
                if !f.is_empty() {
                    out.push(CodecOp::Rep(f));
                }
            }
            CodecOp::Branch(arms) => {
                let flat: Vec<Vec<CodecOp>> =
                    arms.iter().map(|a| flatten(a, codecs, depth + 1)).collect();
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

    fn flows(src: &str) -> Vec<FnFlow> {
        let tokens = lexer::tokenize(src);
        let code: Vec<Token> = tokens
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
            .collect();
        let parsed = parser::parse(&code);
        parsed
            .functions
            .iter()
            .map(|f| analyze_fn(&code, f))
            .collect()
    }

    #[test]
    fn captured_float_accum_in_par_closure_is_flagged() {
        let src = "fn f(xs: &[f64], w: Workers) -> f64 {\n\
                   let mut total = 0.0;\n\
                   let _ = ordered_map(xs, w, |_, &x| { total += x; x });\n\
                   total\n}\n";
        let f = flows(src);
        assert_eq!(f[0].par_accums.len(), 1);
        assert!(f[0].par_accums[0].what.contains("total"));
    }

    #[test]
    fn closure_local_accum_is_clean() {
        let src = "fn f(xs: &[Vec<f64>], w: Workers) -> Vec<f64> {\n\
                   ordered_map(xs, w, |_, row| {\n\
                   let mut s = 0.0;\n\
                   for v in row { s += v; }\n\
                   s\n}) }\n";
        assert!(flows(src)[0].par_accums.is_empty());
    }

    #[test]
    fn integer_accum_without_float_evidence_is_clean() {
        let src = "fn f(xs: &[u64], w: Workers) -> u64 {\n\
                   let mut n = 0u64;\n\
                   let _ = ordered_map(xs, w, |_, _x| { n += 1; 0 });\n\
                   n\n}\n";
        assert!(flows(src)[0].par_accums.is_empty());
    }

    #[test]
    fn map_reduce_fold_closure_is_exempt() {
        let src = "fn f(xs: &[f64], w: Workers) -> f64 {\n\
                   let mut acc = 0.0;\n\
                   map_reduce(xs, w, |x| x * 2.0, 0.0, |a, b| { acc += b; a + b });\n\
                   acc\n}\n";
        assert!(flows(src)[0].par_accums.is_empty());
    }

    #[test]
    fn running_mean_rebind_is_flagged() {
        let src = "fn f(xs: &[f64], w: Workers) -> f64 {\n\
                   let mut mean = 0.0;\n\
                   let _ = ordered_collect(4, w, |i| { mean = mean + (xs[i] - mean); i });\n\
                   mean\n}\n";
        assert_eq!(flows(src)[0].par_accums.len(), 1);
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
            .filter_map(|(i, fl)| fl.codec.clone().map(|c| (i, c)))
            .collect();
        let issues = check_codecs(&codecs);
        assert_eq!(issues.len(), 1);
        match &issues[0] {
            CodecIssue::Mismatch { detail, .. } => {
                assert!(detail.contains("field 1"), "{detail}");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
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
            .filter_map(|(i, fl)| fl.codec.clone().map(|c| (i, c)))
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
            .filter_map(|(i, fl)| fl.codec.clone().map(|c| (i, c)))
            .collect();
        let issues = check_codecs(&codecs);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(matches!(
            &issues[0],
            CodecIssue::Unpaired { name, is_encoder: true, .. } if name == "encode"
        ));
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
            .filter_map(|(i, fl)| fl.codec.clone().map(|c| (i, c)))
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
        assert_eq!(f[0].unguarded_indexes.len(), 1);
        assert!(f[1].unguarded_indexes.is_empty());
    }

    #[test]
    fn range_loop_binder_counts_as_a_guard() {
        let src = "fn f(xs: &[u64]) -> u64 {\n\
                   let mut s = 0;\n\
                   for i in 0..xs.len() { s += xs[i]; }\n\
                   s }\n";
        assert!(flows(src)[0].unguarded_indexes.is_empty());
    }

    #[test]
    fn comparison_guard_on_operand_counts() {
        let src = "fn f(xs: &[u64], i: usize) -> u64 {\n\
                   if i >= xs.len() { return 0; }\n\
                   xs[i] }\n";
        assert!(flows(src)[0].unguarded_indexes.is_empty());
    }

    #[test]
    fn split_at_derived_binding_inherits_the_parent_guard() {
        let src = "fn f(data: &[u8]) -> u8 {\n\
                   if data.len() < 9 { return 0; }\n\
                   let (head, _tail) = data.split_at(8);\n\
                   head[0] }\n";
        assert!(flows(src)[0].unguarded_indexes.is_empty());
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
