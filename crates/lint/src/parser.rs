//! Token stream → item tree: modules, function signatures, impl/trait
//! blocks, `use` imports, struct fields, and call/method-call
//! expressions.
//!
//! Like the lexer underneath it, the parser is *total*: any token
//! stream (including garbage from the fuzzer) produces a `ParsedFile`
//! without panicking — unmatched braces, truncated signatures and
//! stray keywords degrade to "no item recorded", never to an error.
//! It is deliberately not a full Rust grammar (no `syn` in this build
//! environment); it recovers exactly the structure the call-graph and
//! taint passes need:
//!
//! - every `fn` with its module path, enclosing `impl`/`trait` block,
//!   signature and body token ranges, and source line span;
//! - every call site inside a body: `path::to::f(..)` as a resolved
//!   path, `recv.method(..)` as a bare method name (the receiver type
//!   is unknown at this level — the call graph adds a conservative
//!   fallback edge for those);
//! - `use` imports (for resolving unqualified calls across modules);
//! - struct fields whose declared type is an unordered container
//!   (`HashMap`/`HashSet`), so `self.field.iter()` can be recognized
//!   by the taint pass.

use crate::lexer::{is_keyword, Cursor, Token};
use std::collections::BTreeSet;
use std::ops::Range;

/// A function item recovered from one source file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// In-file module path (nested `mod` names), outermost first.
    pub modules: Vec<String>,
    /// `Self` type name when the fn sits in an `impl` block.
    pub impl_type: Option<String>,
    /// Trait name when the fn sits in an `impl Trait for Type` block
    /// or is a default method in a `trait Trait { ... }` declaration.
    pub trait_name: Option<String>,
    /// The function's own name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace (or the last body
    /// token when the input is truncated).
    pub end_line: u32,
    /// Signature tokens (exclusive of `fn` and the body braces), as a
    /// range into the comment-free token stream the parser consumed.
    pub sig: Range<usize>,
    /// Body tokens (exclusive of the outer braces).
    pub body: Range<usize>,
    /// Call sites inside the body, in token order.
    pub calls: Vec<CallSite>,
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the callee name.
    pub line: u32,
    /// What is being called.
    pub callee: Callee,
}

/// The callee of a call expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `f(..)` or `a::b::f(..)` — the path segments as written.
    Path(Vec<String>),
    /// `recv.method(..)` — receiver type unknown; the second field is
    /// the receiver hint: the identifier (variable or `self.field`
    /// field name) immediately before the dot, when there is one.
    Method(String, Option<String>),
}

/// A flattened `use` import: `alias` (the last segment or the `as`
/// name) and the full path it brings into scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// Name the import binds in this file.
    pub alias: String,
    /// Full path segments, as written (leading `crate`/`self`/`super`
    /// kept).
    pub path: Vec<String>,
}

/// Everything the semantic passes need from one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Every recovered function, in source order.
    pub functions: Vec<FnItem>,
    /// Flattened `use` imports.
    pub imports: Vec<UseImport>,
    /// Struct field names declared with an unordered container type
    /// anywhere in this file (file-scoped approximation of field
    /// types).
    pub unordered_fields: BTreeSet<String>,
}

/// Parses a comment-free token stream into the item tree. Total:
/// never panics, on any input.
pub fn parse(code: &[Token]) -> ParsedFile {
    let mut p = Parser {
        cur: Cursor::new(code, 0..code.len()),
        out: ParsedFile::default(),
    };
    p.items(0, code.len(), &mut Vec::new(), None);
    for f in &mut p.out.functions {
        f.calls = extract_calls(code, f.body.clone());
    }
    p.out
}

/// The enclosing `impl`/`trait` context while walking items.
#[derive(Clone)]
struct ImplCtx {
    impl_type: Option<String>,
    trait_name: Option<String>,
}

struct Parser<'a> {
    cur: Cursor<'a>,
    out: ParsedFile,
}

impl Parser<'_> {
    /// Walks items in `code[start..end]`, recursing into `mod`/`impl`/
    /// `trait` bodies and recording every `fn`.
    fn items(
        &mut self,
        start: usize,
        end: usize,
        modules: &mut Vec<String>,
        ctx: Option<&ImplCtx>,
    ) {
        let mut i = start;
        while i < end {
            match self.cur.ident(i) {
                Some("mod") => {
                    if let Some(name) = self.cur.ident(i + 1) {
                        let name = name.to_owned();
                        if self.cur.punct(i + 2, '{') {
                            let close = self.cur.until(end).skip_group(i + 2, '{', '}');
                            modules.push(name);
                            self.items(i + 3, close.saturating_sub(1), modules, None);
                            modules.pop();
                            i = close;
                            continue;
                        }
                    }
                    i += 1;
                }
                Some("impl") => {
                    let (ctx2, open) = self.impl_header(i + 1, end);
                    if let Some(open) = open {
                        let close = self.cur.until(end).skip_group(open, '{', '}');
                        self.items(open + 1, close.saturating_sub(1), modules, Some(&ctx2));
                        i = close;
                        continue;
                    }
                    i += 1;
                }
                Some("trait") => {
                    if let Some(name) = self.cur.ident(i + 1) {
                        let ctx2 = ImplCtx {
                            impl_type: None,
                            trait_name: Some(name.to_owned()),
                        };
                        let mut j = i + 2;
                        if self.cur.punct(j, '<') {
                            j = self.cur.until(end).skip_angles(j);
                        }
                        while j < end && !self.cur.punct(j, '{') && !self.cur.punct(j, ';') {
                            j += 1;
                        }
                        if self.cur.punct(j, '{') {
                            let close = self.cur.until(end).skip_group(j, '{', '}');
                            self.items(j + 1, close.saturating_sub(1), modules, Some(&ctx2));
                            i = close;
                            continue;
                        }
                    }
                    i += 1;
                }
                Some("fn") => {
                    i = self.fn_item(i, end, modules, ctx);
                }
                Some("use") => {
                    i = self.use_item(i + 1, end);
                }
                Some("struct") => {
                    i = self.struct_item(i + 1, end);
                }
                _ => i += 1,
            }
        }
    }

    /// Parses the header after an `impl` keyword: optional generics,
    /// a type (or trait) path, optionally `for Type`. Returns the
    /// context and the index of the opening `{`, if found.
    fn impl_header(&self, mut i: usize, end: usize) -> (ImplCtx, Option<usize>) {
        if self.cur.punct(i, '<') {
            i = self.cur.until(end).skip_angles(i);
        }
        let mut first: Option<String> = None;
        let mut second: Option<String> = None;
        let mut saw_for = false;
        while i < end && !self.cur.punct(i, '{') && !self.cur.punct(i, ';') {
            match self.cur.ident(i) {
                Some("for") => saw_for = true,
                Some("where") => break,
                Some(w) if !is_keyword(w) => {
                    // Keep the last path segment before `for` / `{` as
                    // the name: `impl fmt::Display for Foo` → Display,
                    // Foo.
                    let slot = if saw_for { &mut second } else { &mut first };
                    *slot = Some(w.to_owned());
                }
                _ => {}
            }
            if self.cur.punct(i, '<') {
                i = self.cur.until(end).skip_angles(i);
                continue;
            }
            i += 1;
        }
        while i < end && !self.cur.punct(i, '{') && !self.cur.punct(i, ';') {
            i += 1;
        }
        let ctx = if saw_for {
            ImplCtx {
                impl_type: second,
                trait_name: first,
            }
        } else {
            ImplCtx {
                impl_type: first,
                trait_name: None,
            }
        };
        let open = if self.cur.punct(i, '{') {
            Some(i)
        } else {
            None
        };
        (ctx, open)
    }

    /// Parses one `fn` item starting at the `fn` keyword; records it
    /// and returns the index one past its body (or past the `;` for a
    /// bodiless trait method / declaration).
    fn fn_item(
        &mut self,
        at: usize,
        end: usize,
        modules: &[String],
        ctx: Option<&ImplCtx>,
    ) -> usize {
        let Some(name) = self.cur.ident(at + 1) else {
            return at + 1; // `fn(` — function-pointer type, not an item
        };
        let name = name.to_owned();
        let sig_start = at + 2;
        let mut i = sig_start;
        if self.cur.punct(i, '<') {
            i = self.cur.until(end).skip_angles(i);
        }
        // Parameters, return type, where clause: scan to the body `{`
        // or a terminating `;`, skipping balanced generics so `Fn() ->
        // Vec<T>` bounds can't derail the scan.
        while i < end && !self.cur.punct(i, '{') && !self.cur.punct(i, ';') {
            if self.cur.punct(i, '<') {
                i = self.cur.until(end).skip_angles(i);
                continue;
            }
            i += 1;
        }
        if !self.cur.punct(i, '{') {
            return i.saturating_add(1); // bodiless: trait method decl
        }
        let close = self.cur.until(end).skip_group(i, '{', '}');
        let body = (i + 1)..close.saturating_sub(1);
        let end_line = self.cur.line(
            close
                .saturating_sub(1)
                .min(self.cur.code.len().saturating_sub(1)),
        );
        self.out.functions.push(FnItem {
            modules: modules.to_vec(),
            impl_type: ctx.and_then(|c| c.impl_type.clone()),
            trait_name: ctx.and_then(|c| c.trait_name.clone()),
            name,
            line: self.cur.line(at),
            end_line: end_line.max(self.cur.line(at)),
            sig: sig_start..i,
            body,
            calls: Vec::new(),
        });
        close
    }

    /// Parses a `use` tree starting after the `use` keyword, flattening
    /// `a::b::{c, d as e}` into one import per leaf. Globs are skipped.
    fn use_item(&mut self, start: usize, end: usize) -> usize {
        let semi = (start..end)
            .find(|&k| self.cur.punct(k, ';'))
            .unwrap_or(end);
        self.use_group(start, semi, &[]);
        semi + 1
    }

    /// Flattens one `{ ... }` group of a use tree under `prefix`.
    fn use_group(&mut self, start: usize, end: usize, prefix: &[String]) {
        let mut i = start;
        let mut local: Vec<String> = Vec::new();
        while i < end {
            match self.cur.ident(i) {
                Some("as") => {
                    if let Some(alias) = self.cur.ident(i + 1).map(str::to_owned) {
                        if let Some(last) = self.out.imports.last_mut() {
                            last.alias = alias;
                        }
                        i += 2;
                        continue;
                    }
                    i += 1;
                }
                Some(seg) => {
                    let seg = seg.to_owned();
                    if self.cur.punct(i + 1, ':') && self.cur.punct(i + 2, ':') {
                        local.push(seg);
                        i += 3;
                    } else {
                        let mut path: Vec<String> = prefix.to_vec();
                        path.extend(local.iter().cloned());
                        path.push(seg.clone());
                        self.out.imports.push(UseImport { alias: seg, path });
                        local.clear();
                        i += 1;
                    }
                }
                None if self.cur.punct(i, '{') => {
                    let close = self.cur.until(end).skip_group(i, '{', '}');
                    let mut inner: Vec<String> = prefix.to_vec();
                    inner.extend(local.iter().cloned());
                    self.use_group(i + 1, close.saturating_sub(1), &inner);
                    local.clear();
                    i = close;
                }
                None => {
                    if self.cur.punct(i, ',') {
                        local.clear();
                    }
                    i += 1;
                }
            }
        }
    }

    /// Records struct fields declared with an unordered container type.
    fn struct_item(&mut self, start: usize, end: usize) -> usize {
        let mut i = start;
        if self.cur.punct(i + 1, '<') {
            // `struct Name<...>`: skip the generics before the body.
            i = self.cur.until(end).skip_angles(i + 1);
        }
        while i < end
            && !self.cur.punct(i, '{')
            && !self.cur.punct(i, ';')
            && !self.cur.punct(i, '(')
        {
            i += 1;
        }
        if !self.cur.punct(i, '{') {
            // Tuple struct or unit struct: no named fields.
            while i < end && !self.cur.punct(i, ';') && !self.cur.punct(i, '{') {
                i += 1;
            }
            return i + 1;
        }
        let close = self.cur.until(end).skip_group(i, '{', '}');
        let mut j = i + 1;
        while j < close {
            // `name : Type ,` at brace depth 1 — check the type tokens
            // up to the field-separating comma for HashMap/HashSet.
            if let (Some(field), true) = (self.cur.ident(j), self.cur.punct(j + 1, ':')) {
                if !self.cur.punct(j + 2, ':') {
                    let k = self
                        .cur
                        .types()
                        .depth0(j + 2, close, |k| self.cur.punct(k, ','));
                    let unordered = (j + 2..k)
                        .any(|k| matches!(self.cur.ident(k), Some("HashMap" | "HashSet")));
                    if unordered {
                        self.out.unordered_fields.insert(field.to_owned());
                    }
                    j = k;
                    continue;
                }
            }
            j += 1;
        }
        close
    }
}

/// Extracts call sites from a body token range.
fn extract_calls(code: &[Token], body: Range<usize>) -> Vec<CallSite> {
    let cur = Cursor::new(code, body.clone());
    let mut calls = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let Some(w) = cur.ident(i) else {
            i += 1;
            continue;
        };
        // `crate::`/`super::`/`self::`/`Self::` may head a call path;
        // any other keyword (or a bare `self`) never does.
        let starts_path = cur.punct(i + 1, ':') && cur.punct(i + 2, ':');
        let path_head_keyword = matches!(w, "crate" | "super" | "self" | "Self") && starts_path;
        if ((is_keyword(w) || w == "self") && !path_head_keyword)
            || cur.ident(i.wrapping_sub(1)) == Some("fn")
        {
            i += 1;
            continue;
        }
        let line = cur.line(i);
        // Method call: `recv.name(..)` or `recv.name::<T>(..)`.
        if i >= 1 && cur.punct(i - 1, '.') {
            let mut j = i + 1;
            if cur.punct(j, ':') && cur.punct(j + 1, ':') && cur.punct(j + 2, '<') {
                j = cur.skip_angles(j + 2);
            }
            if cur.punct(j, '(') {
                let recv = if i >= 2 { cur.ident(i - 2) } else { None };
                calls.push(CallSite {
                    line,
                    callee: Callee::Method(w.to_owned(), recv.map(str::to_owned)),
                });
            }
            i += 1;
            continue;
        }
        // Path segment continuation is handled from the path head.
        if i >= 2 && cur.punct(i - 1, ':') && cur.punct(i - 2, ':') {
            i += 1;
            continue;
        }
        // Path call: `a::b::f(..)`, `f(..)`, `f::<T>(..)`.
        let mut segs = vec![w.to_owned()];
        let mut j = i + 1;
        loop {
            if cur.punct(j, ':') && cur.punct(j + 1, ':') {
                if cur.punct(j + 2, '<') {
                    j = cur.skip_angles(j + 2);
                    break;
                }
                if let Some(seg) = cur.ident(j + 2) {
                    if is_keyword(seg) {
                        break;
                    }
                    segs.push(seg.to_owned());
                    j += 3;
                    continue;
                }
            }
            break;
        }
        let is_macro = cur.punct(j, '!');
        if cur.punct(j, '(') && !is_macro {
            calls.push(CallSite {
                line,
                callee: Callee::Path(segs),
            });
        }
        i += 1;
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{tokenize, TokenKind};

    fn parse_src(src: &str) -> ParsedFile {
        let toks: Vec<Token> = tokenize(src)
            .into_iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
            .collect();
        parse(&toks)
    }

    fn qname(f: &FnItem) -> String {
        let mut parts: Vec<String> = f.modules.clone();
        if let Some(t) = &f.impl_type {
            parts.push(t.clone());
        } else if let Some(t) = &f.trait_name {
            parts.push(t.clone());
        }
        parts.push(f.name.clone());
        parts.join("::")
    }

    #[test]
    fn fns_in_modules_impls_and_traits() {
        let src = "
            fn free() {}
            mod inner {
                pub fn nested() {}
                impl Widget {
                    fn method(&self) {}
                }
            }
            impl fmt::Display for Gadget {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
            }
            trait Doer {
                fn act(&self) { self.helper(); }
                fn must(&self);
            }
        ";
        let got: Vec<String> = parse_src(src).functions.iter().map(qname).collect();
        assert_eq!(
            got,
            vec![
                "free",
                "inner::nested",
                "inner::Widget::method",
                "Gadget::fmt",
                "Doer::act"
            ]
        );
    }

    #[test]
    fn trait_impl_records_both_names() {
        let f = &parse_src("impl Classifier for Gbdt { fn fit(&mut self) {} }").functions[0];
        assert_eq!(f.impl_type.as_deref(), Some("Gbdt"));
        assert_eq!(f.trait_name.as_deref(), Some("Classifier"));
    }

    #[test]
    fn calls_paths_methods_and_turbofish() {
        let src = "
            fn f() {
                helper();
                a::b::deep(1, 2);
                Widget::build::<u32>();
                recv.method(x);
                self.field.chained::<T>(y);
                not_a_call! { body };
                let g: fn(u32) -> u32 = id;
            }
        ";
        let calls = parse_src(src).functions[0].calls.clone();
        let paths: Vec<Vec<String>> = calls
            .iter()
            .filter_map(|c| match &c.callee {
                Callee::Path(p) => Some(p.clone()),
                _ => None,
            })
            .collect();
        let methods: Vec<(String, Option<String>)> = calls
            .iter()
            .filter_map(|c| match &c.callee {
                Callee::Method(m, r) => Some((m.clone(), r.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            paths,
            vec![
                vec!["helper".to_owned()],
                vec!["a".to_owned(), "b".to_owned(), "deep".to_owned()],
                vec!["Widget".to_owned(), "build".to_owned()],
            ]
        );
        assert_eq!(
            methods,
            vec![
                ("method".to_owned(), Some("recv".to_owned())),
                ("chained".to_owned(), Some("field".to_owned())),
            ]
        );
    }

    #[test]
    fn use_trees_flatten_with_aliases() {
        let src = "use std::collections::{BTreeMap, HashMap as Map};\nuse crate::util::helper;\n";
        let imports = parse_src(src).imports;
        assert_eq!(
            imports,
            vec![
                UseImport {
                    alias: "BTreeMap".into(),
                    path: vec!["std".into(), "collections".into(), "BTreeMap".into()],
                },
                UseImport {
                    alias: "Map".into(),
                    path: vec!["std".into(), "collections".into(), "HashMap".into()],
                },
                UseImport {
                    alias: "helper".into(),
                    path: vec!["crate".into(), "util".into(), "helper".into()],
                },
            ]
        );
    }

    #[test]
    fn unordered_struct_fields_are_recorded() {
        let src = "
            struct Encoder<T> {
                forward: HashMap<T, usize>,
                reverse: Vec<T>,
            }
            struct Plain { n: usize }
        ";
        let parsed = parse_src(src);
        assert!(parsed.unordered_fields.contains("forward"));
        assert!(!parsed.unordered_fields.contains("reverse"));
        assert!(!parsed.unordered_fields.contains("n"));
    }

    #[test]
    fn bodiless_and_truncated_inputs_are_fine() {
        for src in [
            "fn f(",
            "fn",
            "impl {",
            "mod m {",
            "trait T { fn a(&self)",
            "struct S { x: HashMap<",
            "use a::{b::",
            "fn f() { g( }",
        ] {
            let _ = parse_src(src); // must not panic
        }
    }

    #[test]
    fn fn_spans_cover_the_body() {
        let src = "fn f() {\n    g();\n    h();\n}\n";
        let f = &parse_src(src).functions[0];
        assert_eq!(f.line, 1);
        assert_eq!(f.end_line, 4);
    }
}
