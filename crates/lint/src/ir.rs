//! Per-function IR: the one structural reading of a function body that
//! the fact passes ([`crate::taint`], [`crate::dataflow`],
//! [`crate::absint`]) share instead of each re-scanning the token
//! stream with its own bracket counters.
//!
//! [`build`] turns a parsed [`FnItem`] into a [`FnIr`]: the parameters
//! and return type, the body as a tree of `Stmt` nodes, the params and
//! body of every closure, and the statement boundaries behind
//! `FnIr::stmt_of`. Spans index the comment-free token stream the
//! parser consumed; expressions stay token ranges, so each pass keeps
//! its own expression logic.
//!
//! Like the lexer and parser, the builder is *total*: any token stream
//! produces an IR, every scan advances, and nesting deeper than
//! `MAX_DEPTH` stays an opaque `Kind::Expr`.

use crate::lexer::{is_keyword, Cursor, Token, TokenKind};
use crate::parser::FnItem;
use std::ops::Range;

/// Nesting cap: deeper statements stay opaque expressions, so the
/// builder's recursion is bounded on any input.
const MAX_DEPTH: usize = 24;

/// The shared per-function IR.
#[derive(Debug, Clone, Default)]
pub struct FnIr {
    /// Parameters with a plain `[mut] NAME` binder: name and type span.
    pub(crate) params: Vec<(String, Range<usize>)>,
    /// The `-> TYPE` span, when declared.
    pub(crate) ret: Option<Range<usize>>,
    /// The body's statements.
    pub(crate) body: Vec<Stmt>,
    /// Every closure in the body, by position.
    pub(crate) closures: Vec<Closure>,
    /// Sorted statement boundaries: statement-ending `;`s and the
    /// braces of every block.
    bounds: Vec<usize>,
    /// The body span.
    span: Range<usize>,
}

/// One closure expression.
#[derive(Debug, Clone)]
pub(crate) struct Closure {
    /// Tokens between the pipes.
    pub(crate) params: Range<usize>,
    /// The identifier tokens its parameters bind.
    pub(crate) binders: Vec<usize>,
    /// A block body with its braces, or the expression body.
    pub(crate) body: Range<usize>,
    /// The body's statements (for an expression body, the compound
    /// statements nested in it).
    pub(crate) stmts: Vec<Stmt>,
}

/// One statement, or an expression with statement structure.
#[derive(Debug, Clone)]
pub(crate) struct Stmt {
    /// Its tokens, without a terminating `;`.
    pub(crate) span: Range<usize>,
    /// What it is.
    pub(crate) kind: Kind,
    /// Statements nested in its expression parts: an `if` or `match`
    /// used as an argument, a block expression, a struct-literal field
    /// value. Closure bodies live in [`FnIr::closures`].
    pub(crate) inner: Vec<Stmt>,
}

/// A `let` statement.
#[derive(Debug, Clone)]
pub(crate) struct Let {
    /// The pattern, without its `: TYPE` annotation.
    pub(crate) pat: Range<usize>,
    /// The identifier tokens the pattern binds.
    pub(crate) binders: Vec<usize>,
    /// The bound identifier token of a plain `[mut] NAME` pattern.
    pub(crate) name: Option<usize>,
    /// The annotated type.
    pub(crate) ty: Option<Range<usize>>,
    /// The initializer.
    pub(crate) init: Option<Box<Stmt>>,
    /// The `else` block of a `let … else`.
    pub(crate) els: Option<Vec<Stmt>>,
}

/// Statement kinds. Positional fields are token ranges unless noted;
/// a block is its statements.
#[derive(Debug, Clone)]
pub(crate) enum Kind {
    /// `let PAT [: TYPE] [= INIT] [else { … }]`.
    Let(Box<Let>),
    /// `LHS [op]= RHS`: the place, the index of the `=`, the compound
    /// operator (`+ - * / %`, or `<`/`>` for a shift; `None` for a
    /// plain `=`) and the value.
    Assign(Range<usize>, usize, Option<char>, Range<usize>),
    /// `if COND { … } [else …]`; the else is a block or another `If`.
    If(Range<usize>, Vec<Stmt>, Option<Box<Stmt>>),
    /// `for PAT in ITER { … }`.
    For(Range<usize>, Range<usize>, Vec<Stmt>),
    /// `while COND { … }` (`while let` included), or `loop { … }` with
    /// an empty condition.
    While(Range<usize>, Vec<Stmt>),
    /// `match SCRUTINEE { arms }`: each arm's pattern and guard (up to
    /// the `=>`) and its body, a [`Kind::Block`] or an expression.
    Match(Range<usize>, Vec<(Range<usize>, Stmt)>),
    /// A plain, `unsafe` or nested-`fn` block.
    Block(Vec<Stmt>),
    /// `return VALUE` (`Some`), or `break`/`continue` (`None`).
    Jump(Option<Range<usize>>),
    /// Any other expression.
    Expr(Range<usize>),
}

impl Stmt {
    fn leaf(span: Range<usize>, kind: Kind) -> Stmt {
        let inner = Vec::new();
        Stmt { span, kind, inner }
    }

    /// Calls `f` on each child statement: blocks, branches, arms, the
    /// initializer and `else` of a `let`, then [`Stmt::inner`].
    pub(crate) fn each_child<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        match &self.kind {
            Kind::Let(l) => {
                l.init.iter().for_each(|c| f(c));
                l.els.iter().flatten().for_each(&mut *f);
            }
            Kind::If(_, then, els) => {
                then.iter().for_each(&mut *f);
                els.iter().for_each(|c| f(c));
            }
            Kind::For(_, _, b) | Kind::While(_, b) | Kind::Block(b) => b.iter().for_each(&mut *f),
            Kind::Match(_, arms) => arms.iter().for_each(|(_, body)| f(body)),
            _ => {}
        }
        self.inner.iter().for_each(f);
    }
}

/// Visits `stmts` and all their descendants, parents first.
pub(crate) fn walk<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        s.each_child(&mut |c| walk(std::slice::from_ref(c), f));
    }
}

impl FnIr {
    /// The statement around token `i`: from the token after the
    /// previous boundary (a statement-ending `;` or a block brace) to
    /// the next one, exclusive, clamped to the body.
    pub(crate) fn stmt_of(&self, i: usize) -> Range<usize> {
        let next = self.bounds.partition_point(|&b| b < i);
        let start = next
            .checked_sub(1)
            .map_or(self.span.start, |p| self.bounds[p] + 1);
        let end = self.bounds.get(next).copied().unwrap_or(self.span.end);
        start.max(self.span.start).min(i)..end.min(self.span.end).max(i)
    }

    /// Visits every statement of the body and of every closure body,
    /// parents before children.
    pub(crate) fn walk<'a>(&'a self, mut f: impl FnMut(&'a Stmt)) {
        walk(&self.body, &mut f);
        for c in &self.closures {
            walk(&c.stmts, &mut f);
        }
    }

    /// Every `let` statement with its span, in token order.
    pub(crate) fn lets(&self) -> Vec<(Range<usize>, &Let)> {
        let mut out = Vec::new();
        self.walk(|s| {
            if let Kind::Let(l) = &s.kind {
                out.push((s.span.clone(), &**l));
            }
        });
        out.sort_by_key(|(span, _)| span.start);
        out
    }

    /// The outermost statement starting at token `i`.
    pub(crate) fn stmt_starting_at(&self, i: usize) -> Option<&Stmt> {
        let mut found = None;
        self.walk(|s| {
            if s.span.start == i {
                found = found.or(Some(s));
            }
        });
        found
    }
}

/// Builds the IR of one function over the comment-free token stream
/// the parser consumed. Total: never panics, any input.
pub fn build(code: &[Token], f: &FnItem) -> FnIr {
    let mut b = Builder {
        cur: Cursor::new(code, f.body.clone()),
        closures: Vec::new(),
        bounds: Vec::new(),
    };
    let body = b.stmts(f.body.clone(), 0);
    b.bounds.sort_unstable();
    b.bounds.dedup();
    b.closures.sort_by_key(|c| c.params.start);
    let (params, ret) = signature(Cursor::new(code, f.sig.clone()));
    FnIr {
        params,
        ret,
        body,
        closures: b.closures,
        bounds: b.bounds,
        span: f.body.clone(),
    }
}

type Params = Vec<(String, Range<usize>)>;

/// Parameters and return type from a signature span.
fn signature(cur: Cursor<'_>) -> (Params, Option<Range<usize>>) {
    let open = if cur.punct(cur.start, '<') {
        cur.skip_angles(cur.start)
    } else {
        cur.start
    };
    if !cur.punct(open, '(') {
        return (Vec::new(), None);
    }
    let close = cur.skip_group(open, '(', ')');
    let mut params = Vec::new();
    for part in cur
        .types()
        .split0(open + 1..close.saturating_sub(1).max(open + 1), ",")
    {
        if let Some(colon) = part.clone().find(|&k| single_colon(cur, k)) {
            if let Some(name) = simple_name(cur, part.start..colon).and_then(|k| cur.ident(k)) {
                params.push((name.to_owned(), colon + 1..part.end));
            }
        }
    }
    let ret = (cur.punct(close, '-') && cur.punct(close + 1, '>')).then(|| {
        let wh = (close + 2..cur.end).find(|&k| cur.ident(k) == Some("where"));
        close + 2..wh.unwrap_or(cur.end)
    });
    (params, ret)
}

/// A lone `:` (not half of `::`) at token `k`.
fn single_colon(cur: Cursor<'_>, k: usize) -> bool {
    cur.punct(k, ':') && !cur.punct(k + 1, ':') && !cur.punct(k.wrapping_sub(1), ':')
}

/// `[mut] NAME` → the NAME token.
fn simple_name(cur: Cursor<'_>, r: Range<usize>) -> Option<usize> {
    let k = r.start + usize::from(cur.ident(r.start) == Some("mut"));
    let name = cur.ident(k).filter(|w| !is_keyword(w) && *w != "_");
    (name.is_some() && k + 1 == r.end).then_some(k)
}

/// The one binder rule: the identifier tokens a pattern binds. A
/// depth-0 `: TYPE` annotation is skipped up to the next depth-0 `,`;
/// keywords, `_`, and path, tuple-struct and struct names are not
/// binders.
fn binders(cur: Cursor<'_>, r: Range<usize>) -> Vec<usize> {
    let ty = cur.types();
    let mut out = Vec::new();
    for part in ty.split0(r, ",") {
        let colon = ty.depth0(part.start, part.end, |k| single_colon(cur, k));
        for k in part.start..colon {
            let Some(w) = cur.ident(k) else { continue };
            let path = |a: usize, b: usize| cur.punct(a, ':') && cur.punct(b, ':');
            let named_type = cur.punct(k + 1, '(')
                || cur.punct(k + 1, '{')
                || path(k + 1, k + 2)
                || path(k.wrapping_sub(1), k.wrapping_sub(2));
            if !is_keyword(w) && w != "_" && !named_type {
                out.push(k);
            }
        }
    }
    out
}

struct Builder<'a> {
    cur: Cursor<'a>,
    closures: Vec<Closure>,
    bounds: Vec<usize>,
}

impl Builder<'_> {
    /// The `{` opening a header's block (`if`, `for`, `match`, …).
    fn header_open(&self, from: usize, end: usize) -> usize {
        self.cur.depth0(from, end, |k| self.cur.punct(k, '{'))
    }

    /// The end of the expression starting at `from`: a depth-0 `;`.
    fn expr_end(&self, from: usize, end: usize) -> usize {
        self.cur.depth0(from, end, |k| self.cur.punct(k, ';'))
    }

    /// The statements of `r`.
    fn stmts(&mut self, r: Range<usize>, depth: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut i = r.start;
        while i < r.end {
            if self.cur.punct(i, ';') {
                self.bounds.push(i);
            } else if !self.cur.punct(i, ',') && !self.cur.punct(i, '}') {
                let s = self.stmt(i, r.end, depth);
                i = s.span.end.max(i + 1);
                out.push(s);
                continue;
            }
            i += 1;
        }
        out
    }

    /// The block opening at `open` (empty when `open` is not a `{`), and
    /// the index past its closing brace.
    fn block(&mut self, open: usize, end: usize, depth: usize) -> (Vec<Stmt>, usize) {
        let (span, close) = self.block_span(open, end);
        (self.stmts(span, depth + 1), close)
    }

    /// One statement starting at `i`, ending no later than `end`.
    fn stmt(&mut self, i: usize, end: usize, depth: usize) -> Stmt {
        if depth > MAX_DEPTH {
            return Stmt::leaf(i..end, Kind::Expr(i..end));
        }
        // `'label:` and `#[attr]` prefixes belong to the statement.
        let mut k = i;
        while k < end {
            if matches!(self.cur.kind(k), Some(TokenKind::Lifetime)) && self.cur.punct(k + 1, ':') {
                k += 2;
            } else if self.cur.punct(k, '#') && self.cur.punct(k + 1, '[') {
                k = self.cur.until(end).skip_group(k + 1, '[', ']');
            } else {
                break;
            }
        }
        let word = self.cur.ident(k).filter(|_| k < end);
        let mut inner = Vec::new();
        let (kind, stop) = match word {
            Some("let") => self.let_stmt(k, end, depth),
            Some("if") => {
                let open = self.header_open(k + 1, end);
                inner = self.scan_expr(k + 1..open, depth);
                let (then, mut stop) = self.block(open, end, depth);
                let mut els = None;
                if stop < end && self.cur.ident(stop) == Some("else") {
                    let s = if self.cur.ident(stop + 1) == Some("if") {
                        self.stmt(stop + 1, end, depth + 1)
                    } else {
                        let (b, e) = self.block(stop + 1, end, depth);
                        Stmt::leaf(stop + 1..e, Kind::Block(b))
                    };
                    stop = s.span.end.max(stop + 1);
                    els = Some(Box::new(s));
                }
                (Kind::If(k + 1..open, then, els), stop)
            }
            Some(w @ ("for" | "while" | "loop")) => {
                let open = self.header_open(k + 1, end);
                inner = self.scan_expr(k + 1..open, depth);
                let (body, stop) = self.block(open, end, depth);
                let kind = match (k + 1..open).find(|&j| self.cur.ident(j) == Some("in")) {
                    Some(at) if w == "for" => Kind::For(k + 1..at, at + 1..open, body),
                    _ => Kind::While(k + 1..open, body),
                };
                (kind, stop)
            }
            Some("match") => {
                let open = self.header_open(k + 1, end);
                inner = self.scan_expr(k + 1..open, depth);
                let (arms, stop) = self.arms(open, end, depth);
                (Kind::Match(k + 1..open, arms), stop)
            }
            Some(w @ ("return" | "break" | "continue")) => {
                let e = self.expr_end(k + 1, end);
                inner = self.scan_expr(k + 1..e, depth);
                (Kind::Jump((w == "return").then_some(k + 1..e)), e)
            }
            // `unsafe { … }` and nested `fn` items: their body is a
            // block of the outer body.
            Some(w @ ("unsafe" | "fn")) => {
                let open = if w == "fn" {
                    self.cur.depth0(k + 1, end, |j| {
                        self.cur.punct(j, '{') || self.cur.punct(j, ';')
                    })
                } else {
                    k + 1
                };
                let (b, stop) = self.block(open, end, depth);
                (Kind::Block(b), stop.max(open))
            }
            _ if self.cur.punct(k, '{') => {
                let (b, stop) = self.block(k, end, depth);
                (Kind::Block(b), stop)
            }
            _ => {
                let e = self.expr_end(k, end);
                inner = self.scan_expr(k..e, depth);
                (self.assign_or_expr(k..e), e)
            }
        };
        let span = i..stop.max(k).min(end);
        Stmt { span, kind, inner }
    }

    /// An expression statement: an assignment when a depth-0 `=` (or
    /// compound `op=`) splits it, else an expression.
    fn assign_or_expr(&self, r: Range<usize>) -> Kind {
        let punct = |k: usize| match self.cur.kind(k) {
            Some(TokenKind::Punct(c)) if k >= r.start => Some(*c),
            _ => None,
        };
        let mut from = r.start;
        loop {
            let k = self.cur.depth0(from, r.end, |k| self.cur.punct(k, '='));
            if k >= r.end {
                return Kind::Expr(r);
            }
            let (lhs_end, op) = match (punct(k.wrapping_sub(2)), punct(k.wrapping_sub(1))) {
                (Some(a @ ('<' | '>')), Some(b)) if a == b => (k - 2, Some(a)),
                (_, Some(c @ ('+' | '-' | '*' | '/' | '%'))) => (k - 1, Some(c)),
                (_, Some('=' | '!' | '<' | '>')) => (usize::MAX, None),
                _ if matches!(punct(k + 1), Some('=' | '>')) => (usize::MAX, None),
                _ => (k, None),
            };
            if lhs_end != usize::MAX {
                return Kind::Assign(r.start..lhs_end, k, op, k + 1..r.end);
            }
            from = k + 1;
        }
    }

    fn let_stmt(&mut self, k: usize, end: usize, depth: usize) -> (Kind, usize) {
        let e = self.expr_end(k + 1, end);
        let eq = self.cur.depth0(k + 1, e, |j| {
            self.cur.punct(j, '=') && !self.cur.punct(j + 1, '=')
        });
        let colon = self.cur.depth0(k + 1, eq, |j| single_colon(self.cur, j));
        let pat = k + 1..colon;
        let (mut init, mut els) = (None, None);
        if eq < e {
            // `let PAT = EXPR else { … }`: a depth-0 `else` ends the
            // initializer (which cannot itself end in a `}`).
            let at = (eq + 1..e)
                .find(|&j| {
                    self.cur.ident(j) == Some("else")
                        && self.cur.punct(j + 1, '{')
                        && !self.cur.punct(j - 1, '}')
                })
                .filter(|&a| self.cur.depth0(eq + 1, e, |j| j == a) == a)
                .unwrap_or(e);
            init = Some(Box::new(self.expr_node(eq + 1..at, depth)));
            els = (at < e).then(|| self.block(at + 1, e, depth).0);
        }
        let l = Let {
            binders: binders(self.cur, pat.clone()),
            name: simple_name(self.cur, pat.clone()),
            ty: (colon < eq).then(|| colon + 1..eq),
            pat,
            init,
            els,
        };
        (Kind::Let(Box::new(l)), e)
    }

    /// The arms of the `match` body opening at `open`, and the index
    /// past it.
    fn arms(
        &mut self,
        open: usize,
        end: usize,
        depth: usize,
    ) -> (Vec<(Range<usize>, Stmt)>, usize) {
        let (body, stop) = self.block_span(open, end);
        let mut arms = Vec::new();
        let mut i = body.start;
        while i < body.end {
            let arrow = self.cur.depth0(i, body.end, |j| {
                self.cur.punct(j, '=') && self.cur.punct(j + 1, '>')
            });
            if arrow >= body.end {
                break;
            }
            let b = arrow + 2;
            let arm = if self.cur.punct(b, '{') {
                let (blk, e) = self.block(b, body.end, depth);
                Stmt::leaf(b..e, Kind::Block(blk))
            } else {
                let e = self.cur.depth0(b, body.end, |j| self.cur.punct(j, ','));
                self.expr_node(b..e, depth)
            };
            let next = arm.span.end.max(b);
            arms.push((i..arrow, arm));
            i = next + usize::from(self.cur.punct(next, ','));
        }
        (arms, stop)
    }

    /// The inside of the brace group opening at `open` (recorded as
    /// boundaries), and the index past it.
    fn block_span(&mut self, open: usize, end: usize) -> (Range<usize>, usize) {
        if open >= end || !self.cur.punct(open, '{') {
            return (open..open, open.min(end));
        }
        let close = self.cur.until(end).skip_group(open, '{', '}');
        let inner_end = if self.cur.punct(close - 1, '}') && close - 1 > open {
            close - 1
        } else {
            close
        };
        self.bounds.extend([open, inner_end]);
        (open + 1..inner_end, close)
    }

    /// An expression that may itself be a compound statement (`let`
    /// initializers, match-arm bodies).
    fn expr_node(&mut self, r: Range<usize>, depth: usize) -> Stmt {
        let compound = match self.cur.kind(r.start) {
            Some(TokenKind::Ident(w)) => matches!(
                w.as_str(),
                "if" | "match"
                    | "while"
                    | "for"
                    | "loop"
                    | "unsafe"
                    | "return"
                    | "break"
                    | "continue"
            ),
            Some(TokenKind::Punct('{')) => true,
            _ => false,
        };
        if r.is_empty() || !compound {
            let inner = self.scan_expr(r.clone(), depth);
            let kind = self.assign_or_expr(r.clone());
            return Stmt {
                span: r,
                kind,
                inner,
            };
        }
        let s = self.stmt(r.start, r.end, depth + 1);
        if s.span.end >= r.end {
            return s;
        }
        let rest = s.span.end..r.end;
        let mut inner = vec![s];
        inner.extend(self.scan_expr(rest, depth));
        Stmt {
            span: r.clone(),
            kind: Kind::Expr(r),
            inner,
        }
    }

    /// Records the closures nested in an expression and returns its
    /// nested statements.
    fn scan_expr(&mut self, r: Range<usize>, depth: usize) -> Vec<Stmt> {
        let mut inner = Vec::new();
        let mut i = r.start;
        while i < r.end && depth <= MAX_DEPTH {
            let prev = self.cur.kind(i.wrapping_sub(1));
            let compound = match self.cur.kind(i) {
                // A closure's opening `|` follows `,`, `(`, `=` or
                // `move`; a binary `|` follows a value.
                Some(TokenKind::Punct('|')) => {
                    let opens = match prev {
                        Some(TokenKind::Punct(c)) => matches!(c, ',' | '(' | '='),
                        Some(TokenKind::Ident(w)) => w == "move",
                        _ => false,
                    };
                    if opens {
                        i = self.closure(i, r.end, depth).max(i + 1);
                        continue;
                    }
                    false
                }
                // A block expression, or a struct literal whose
                // `field: VALUE`s are expressions.
                Some(TokenKind::Punct('{')) => {
                    let block = i == r.start
                        || matches!(
                            prev,
                            Some(TokenKind::Punct('=' | '(' | ',' | ';' | '{' | '}'))
                        );
                    if block {
                        true
                    } else {
                        let close = self.cur.until(r.end).skip_group(i, '{', '}');
                        let fields = i + 1..close.saturating_sub(1).max(i + 1);
                        for field in self.cur.types().split0(fields, ",") {
                            if !field.is_empty()
                                && self.cur.ident(field.start).is_some()
                                && single_colon(self.cur, field.start + 1)
                            {
                                let value = field.start + 2..field.end;
                                let mut s = Stmt::leaf(value.clone(), Kind::Expr(value.clone()));
                                s.inner = self.scan_expr(value, depth + 1);
                                inner.push(s);
                            }
                        }
                        i = close.max(i + 1);
                        continue;
                    }
                }
                Some(TokenKind::Ident(w)) => {
                    matches!(w.as_str(), "if" | "match" | "while" | "for" | "loop")
                        || (w == "unsafe" && self.cur.punct(i + 1, '{'))
                }
                _ => false,
            };
            if compound {
                let s = self.stmt(i, r.end, depth + 1);
                i = s.span.end.max(i + 1);
                inner.push(s);
            } else {
                i += 1;
            }
        }
        inner
    }

    /// Records the closure whose opening `|` is at `i`; returns the
    /// index past its body.
    fn closure(&mut self, i: usize, end: usize, depth: usize) -> usize {
        let params_end = self.cur.depth0(i + 1, end, |k| self.cur.punct(k, '|'));
        let mut body_start = params_end + 1;
        // `|x| -> T { … }`: the body is the block after the type.
        if self.cur.punct(body_start, '-') && self.cur.punct(body_start + 1, '>') {
            body_start = self.header_open(body_start + 2, end);
        }
        let (body, stmts) = if body_start < end && self.cur.punct(body_start, '{') {
            let (b, stop) = self.block(body_start, end, depth);
            (body_start..stop, b)
        } else {
            // Expression body: up to a depth-0 `,` or `;`, or the
            // unbalanced closer ending the surrounding group.
            let e = self.cur.depth0(body_start, end, |k| {
                matches!(
                    self.cur.kind(k),
                    Some(TokenKind::Punct(',' | ';' | ')' | ']' | '}'))
                )
            });
            let body = body_start.min(e)..e;
            (body.clone(), self.scan_expr(body, depth + 1))
        };
        let params = i + 1..params_end.min(end);
        let binders = binders(self.cur, params.clone());
        let end = body.end;
        self.closures.push(Closure {
            params,
            binders,
            body,
            stmts,
        });
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    /// The IR of the first function in `src`, with its token stream.
    fn ir_of(src: &str) -> (FnIr, Vec<Token>) {
        let code: Vec<Token> = tokenize(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
            .collect();
        let f = crate::parser::parse(&code).functions.remove(0);
        (build(&code, &f), code)
    }

    /// The tokens of `r`, space-separated.
    fn text(code: &[Token], r: &Range<usize>) -> String {
        let word = |t: &Token| match &t.kind {
            TokenKind::Ident(s) | TokenKind::Number(s) => s.clone(),
            TokenKind::Punct(c) => c.to_string(),
            _ => "\"…\"".to_owned(),
        };
        code[r.clone()]
            .iter()
            .map(word)
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The identifiers at token indices `ks`.
    fn names(code: &[Token], ks: &[usize]) -> Vec<String> {
        ks.iter().map(|&k| text(code, &(k..k + 1))).collect()
    }

    #[test]
    fn if_chain_as_a_let_initializer() {
        let src =
            "fn f(a: u32) -> u32 { let x = if a < 1 { 0 } else if a < 9 { 1 } else { 2 }; x }";
        let (ir, code) = ir_of(src);
        assert_eq!(ir.body.len(), 2, "{:#?}", ir.body);
        let Kind::Let(l) = &ir.body[0].kind else {
            panic!("{:#?}", ir.body[0]);
        };
        assert_eq!(
            l.name.map(|k| text(&code, &(k..k + 1))).as_deref(),
            Some("x")
        );
        assert!(l.els.is_none(), "the chain's `else` is not a let-else");
        let init = l.init.as_deref().expect("initializer");
        let Kind::If(cond, then, Some(els)) = &init.kind else {
            panic!("{init:#?}");
        };
        assert_eq!(text(&code, cond), "a < 1");
        assert_eq!(then.len(), 1);
        let Kind::If(cond, _, Some(last)) = &els.kind else {
            panic!("{els:#?}");
        };
        assert_eq!(text(&code, cond), "a < 9");
        assert!(matches!(&last.kind, Kind::Block(b) if b.len() == 1));
        assert_eq!(ir.params, vec![("a".to_owned(), 5..6)]);
        assert_eq!(
            ir.ret.as_ref().map(|r| text(&code, r)).as_deref(),
            Some("u32")
        );
    }

    #[test]
    fn match_with_expression_and_block_arms() {
        let src = "fn f(k: u8) -> u8 { match k { 0 => 1, 1 | 2 if k > 0 => { let y = k; y } _ => return 9, } }";
        let (ir, code) = ir_of(src);
        let Kind::Match(scrutinee, arms) = &ir.body[0].kind else {
            panic!("{:#?}", ir.body);
        };
        assert_eq!(text(&code, scrutinee), "k");
        let pats: Vec<String> = arms.iter().map(|(p, _)| text(&code, p)).collect();
        assert_eq!(pats, ["0", "1 | 2 if k > 0", "_"]);
        assert!(matches!(&arms[0].1.kind, Kind::Expr(r) if text(&code, r) == "1"));
        assert!(matches!(&arms[1].1.kind, Kind::Block(b) if b.len() == 2));
        assert!(matches!(&arms[2].1.kind, Kind::Jump(Some(v)) if text(&code, v) == "9"));
    }

    #[test]
    fn closure_with_a_return_type_and_block_body() {
        let src = "fn f(xs: &[u32]) -> Vec<u32> { xs.iter().map(|x: &u32| -> u32 { let d = x * 2; d }).collect() }";
        let (ir, code) = ir_of(src);
        assert_eq!(ir.closures.len(), 1);
        let c = &ir.closures[0];
        assert_eq!(text(&code, &c.params), "x : & u32");
        assert_eq!(names(&code, &c.binders), ["x"]);
        assert!(text(&code, &c.body).starts_with("{ let d"));
        assert_eq!(c.stmts.len(), 2);
        assert!(matches!(&c.stmts[0].kind, Kind::Let(l) if names(&code, &l.binders) == ["d"]));
    }

    #[test]
    fn tuple_let_with_a_type_annotation() {
        let src = "fn f() { let (a, mut b): (u8, Vec<u8>) = (1, Vec::new()); }";
        let (ir, code) = ir_of(src);
        let Kind::Let(l) = &ir.body[0].kind else {
            panic!("{:#?}", ir.body);
        };
        assert_eq!(text(&code, &l.pat), "( a , mut b )");
        assert_eq!(names(&code, &l.binders), ["a", "b"]);
        assert_eq!(l.name, None);
        let ty = l.ty.as_ref().expect("annotated");
        assert_eq!(text(&code, ty), "( u8 , Vec < u8 > )");
        let init = l.init.as_deref().expect("initializer");
        assert_eq!(text(&code, &init.span), "( 1 , Vec : : new ( ) )");
    }

    #[test]
    fn for_loop_tuple_binder() {
        let src = "fn f(v: &[u8]) { for (i, x) in v.iter().enumerate() { g(i, x); } }";
        let (ir, code) = ir_of(src);
        let Kind::For(pat, iter, body) = &ir.body[0].kind else {
            panic!("{:#?}", ir.body);
        };
        assert_eq!(text(&code, pat), "( i , x )");
        assert_eq!(
            names(
                &code,
                &binders(Cursor::new(&code, 0..code.len()), pat.clone())
            ),
            ["i", "x"]
        );
        assert_eq!(text(&code, iter), "v . iter ( ) . enumerate ( )");
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn statement_boundaries_are_statement_semicolons_and_block_braces() {
        let src = "fn f() { let a = [0u8; 4]; let s = S { n: 1 }; g(a, s); }";
        let (ir, code) = ir_of(src);
        let at = |word: &str| {
            code.iter()
                .position(|t| t.kind == TokenKind::Number(word.into()))
        };
        let four = at("4").expect("array length");
        assert_eq!(text(&code, &ir.stmt_of(four)), "let a = [ 0u8 ; 4 ]");
        let one = at("1").expect("field value");
        assert_eq!(text(&code, &ir.stmt_of(one)), "let s = S { n : 1 }");
    }
}
