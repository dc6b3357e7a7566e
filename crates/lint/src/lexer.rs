//! A minimal line/comment/string-aware Rust tokenizer.
//!
//! The build environment has no crates.io, so `syn` is off the table;
//! the rule catalog only needs identifier sequences with line numbers,
//! which a hand-rolled lexer provides. The lexer never fails: any byte
//! sequence produces a token stream (unterminated strings and comments
//! are closed at end of input), which is what the "tokenizer never
//! panics on arbitrary input" property test locks down.

use std::ops::Range;

/// One lexical token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Token payloads. Comments are kept (the suppression parser reads
/// them); string/char literals are kept opaquely so identifier rules
/// can never match inside them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`HashMap`, `as`, `unwrap`, ...).
    Ident(String),
    /// Integer/float literal text (value is irrelevant to the rules).
    Number(String),
    /// `"..."`, `r#"..."#`, `b"..."` or char/byte-char literal.
    Literal,
    /// Lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// `// ...` or `/* ... */` comment, full text including markers.
    Comment {
        /// Raw comment text.
        text: String,
        /// Whether any non-comment token precedes it on its line.
        trailing: bool,
    },
    /// Any other single character (`{`, `.`, `!`, `:`, ...).
    Punct(char),
}

/// Keywords: never a call target, path segment, variable or indexable
/// expression head.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

/// Primitive scalar type names: never a variable.
const PRIMITIVES: &[&str] = &[
    "bool", "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64",
    "i128", "isize",
];

/// Whether `w` is a Rust keyword.
pub fn is_keyword(w: &str) -> bool {
    KEYWORDS.contains(&w)
}

/// Number tokens that denote floats: a decimal point, an `f32`/`f64`
/// suffix, or an exponent. An `e`/`E` counts as an exponent only next
/// to a digit — integer suffixes (`0usize`) carry a bare `e`.
pub fn is_float_number(text: &str) -> bool {
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

/// Tokenizes Rust-ish source. Total: consumes every byte, never panics.
pub fn tokenize(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
        line_has_code: false,
    }
    .run()
}

/// Whether a char can start an identifier.
fn ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
    line_has_code: bool,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.line_has_code = false;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, line: u32) {
        if !matches!(kind, TokenKind::Comment { .. }) {
            self.line_has_code = true;
        }
        self.out.push(Token { kind, line });
    }

    fn run(mut self) -> Vec<Token> {
        // A shebang line (`#!...` not starting an inner attribute) is
        // consumed as a comment so its payload can never match a rule.
        if self.peek(0) == Some('#') && self.peek(1) == Some('!') && self.peek(2) != Some('[') {
            self.line_comment(1);
        }
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string_literal(line),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string_literal(line);
                }
                'r' if self.raw_string_ahead(1) => {
                    self.bump();
                    self.raw_string(line);
                }
                'r' if self.peek(1) == Some('#') && self.peek(2).is_some_and(ident_start) => {
                    // Raw identifier `r#type`: the `r#` escape is lexer
                    // noise; the token is the identifier proper.
                    self.bump();
                    self.bump();
                    self.ident(line);
                }
                'b' if self.peek(1) == Some('r') && self.raw_string_ahead(2) => {
                    self.bump();
                    self.bump();
                    self.raw_string(line);
                }
                '\'' => self.quote(line),
                c if c == '_' || c.is_alphabetic() => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                c => {
                    self.bump();
                    self.push(TokenKind::Punct(c), line);
                }
            }
        }
        self.out
    }

    /// Whether `r`/`br` at the current position starts a raw string:
    /// zero or more `#` then `"`.
    fn raw_string_ahead(&self, from: usize) -> bool {
        let mut k = from;
        while self.peek(k) == Some('#') {
            k += 1;
        }
        self.peek(k) == Some('"')
    }

    fn line_comment(&mut self, line: u32) {
        let trailing = self.line_has_code;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.push(Token {
            kind: TokenKind::Comment { text, trailing },
            line,
        });
    }

    fn block_comment(&mut self, line: u32) {
        let trailing = self.line_has_code;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth = depth.saturating_sub(1);
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.push(Token {
            kind: TokenKind::Comment { text, trailing },
            line,
        });
    }

    fn string_literal(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Literal, line);
    }

    fn raw_string(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Literal, line);
    }

    /// `'` starts either a char literal or a lifetime; disambiguate the
    /// way rustc does: `'x'` (or an escape) is a char, `'ident` not
    /// followed by a closing quote is a lifetime.
    fn quote(&mut self, line: u32) {
        self.bump(); // '
        match self.peek(0) {
            Some('\\') => {
                self.bump();
                self.bump(); // escaped char
                             // consume up to the closing quote (\u{...} etc.)
                while let Some(c) = self.peek(0) {
                    if c == '\'' || c == '\n' {
                        break;
                    }
                    self.bump();
                }
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokenKind::Literal, line);
            }
            Some(c) if c == '_' || c.is_alphabetic() => {
                if self.peek(1) == Some('\'') {
                    self.bump();
                    self.bump();
                    self.push(TokenKind::Literal, line);
                } else {
                    while let Some(c) = self.peek(0) {
                        if c == '_' || c.is_alphanumeric() {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokenKind::Lifetime, line);
                }
            }
            Some(_) => {
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(TokenKind::Literal, line);
            }
            None => self.push(TokenKind::Literal, line),
        }
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident(text), line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            // Good enough for rule matching: glue digits, `_`, hex
            // letters and exponent chars into one opaque number token.
            // A `.` belongs to the number only as a decimal point
            // (digit follows): `0..n` ranges and `0.max(x)` method
            // calls end the token so their operands stay visible to
            // the dataflow layer.
            let decimal_point = c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit());
            if c.is_ascii_alphanumeric() || c == '_' || decimal_point {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Number(text), line);
    }
}

/// A read-only view of a token stream, bounded to one span (usually a
/// function body): the shared token accessors of the parser and the
/// fact passes, and the one place bracket depth is tracked. Every
/// accessor is total — an index outside the stream reads as "no
/// token", and group scans saturate at `end` on unbalanced input.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    /// The whole token stream; indices are absolute.
    pub code: &'a [Token],
    /// First token of the span.
    pub start: usize,
    /// One past the span's last token; scans never reach past it.
    pub end: usize,
    /// Whether depth-0 scans step over `<…>` groups (type context).
    types: bool,
}

impl<'a> Cursor<'a> {
    /// A cursor over `span` of `code`.
    pub fn new(code: &'a [Token], span: Range<usize>) -> Cursor<'a> {
        Cursor {
            code,
            start: span.start,
            end: span.end,
            types: false,
        }
    }

    /// The same stream read as types: [`Cursor::depth0`] and
    /// [`Cursor::split0`] also step over `<…>` groups whole, with
    /// [`Cursor::skip_angles`].
    #[must_use]
    pub fn types(self) -> Cursor<'a> {
        Cursor {
            types: true,
            ..self
        }
    }

    /// The same stream with the scan limit moved to `end`.
    #[must_use]
    pub fn until(self, end: usize) -> Cursor<'a> {
        Cursor { end, ..self }
    }

    /// The kind of token `i`, if any.
    pub fn kind(&self, i: usize) -> Option<&'a TokenKind> {
        self.code.get(i).map(|t| &t.kind)
    }

    /// The identifier at `i`, if token `i` is one.
    pub fn ident(&self, i: usize) -> Option<&'a str> {
        match self.kind(i) {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Whether token `i` is the punctuation `c`.
    pub fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.kind(i), Some(TokenKind::Punct(p)) if *p == c)
    }

    /// The source line of token `i` (0 past the end).
    pub fn line(&self, i: usize) -> u32 {
        self.code.get(i).map_or(0, |t| t.line)
    }

    /// Whether token `i` can end a value, so that a `-`, `*`, `<` or
    /// `[` after it is a binary operator or an index: an identifier
    /// other than a keyword (`true` and `false` count), a literal, or a
    /// closing `)`/`]`.
    pub fn value_end(&self, i: usize) -> bool {
        match self.kind(i) {
            Some(TokenKind::Ident(w)) => !is_keyword(w) || w == "true" || w == "false",
            Some(TokenKind::Number(_) | TokenKind::Literal | TokenKind::Punct(')' | ']')) => true,
            _ => false,
        }
    }

    /// The identifier at `i` when it can name a variable: not a
    /// keyword, `self` or a primitive type.
    pub fn value_name(&self, i: usize) -> Option<&'a str> {
        self.ident(i)
            .filter(|w| !is_keyword(w) && *w != "self" && !PRIMITIVES.contains(w))
    }

    /// The dotted chain `a.b.c` of non-keyword identifiers that ends at
    /// `r.end` and starts no earlier than `r.start`; empty when the
    /// token before `r.end` is not such an identifier.
    pub fn dotted(&self, r: Range<usize>) -> Range<usize> {
        let name = |k: usize| self.ident(k).is_some_and(|w| !is_keyword(w));
        let mut s = r.end;
        while s > r.start && name(s - 1) {
            s -= 1;
            if !(s >= r.start + 2 && self.punct(s - 1, '.') && name(s - 2)) {
                break;
            }
            s -= 1;
        }
        s..r.end
    }

    /// Canonical text of a token span, for keys and messages: tokens
    /// concatenated, with a space only between two word characters.
    pub fn text(&self, r: &Range<usize>) -> String {
        let mut out = String::new();
        for k in r.clone() {
            let piece = match self.kind(k) {
                Some(TokenKind::Ident(s) | TokenKind::Number(s)) => s.as_str(),
                Some(TokenKind::Literal) => "\"…\"",
                Some(TokenKind::Lifetime) => "'_",
                Some(TokenKind::Comment { .. }) | None => "",
                Some(TokenKind::Punct(c)) => {
                    out.push(*c);
                    continue;
                }
            };
            let word = |c: char| c.is_alphanumeric() || c == '_';
            if out.chars().last().is_some_and(word) && piece.chars().next().is_some_and(word) {
                out.push(' ');
            }
            out.push_str(piece);
        }
        out
    }

    /// Whether any identifier in `r` satisfies `pred`.
    pub fn any_ident(&self, r: Range<usize>, pred: impl Fn(&str) -> bool) -> bool {
        r.into_iter().any(|k| self.ident(k).is_some_and(&pred))
    }

    /// Whether `r` holds float evidence: a float literal or an
    /// `f64`/`f32` mention, the target of an `as` cast included.
    pub fn float_evidence(&self, r: &Range<usize>) -> bool {
        r.clone().any(|k| self.float_at(k, true))
    }

    /// Whether `r` reads as an integer: `int` holds for one of its
    /// tokens, and it holds no float evidence other than an `as f64` /
    /// `as f32` target (such a view of an integer stays an integer).
    pub fn int_evidence(&self, r: &Range<usize>, int: impl Fn(usize) -> bool) -> bool {
        !r.clone().any(|k| self.float_at(k, false)) && r.clone().any(int)
    }

    fn float_at(&self, k: usize, casts: bool) -> bool {
        match self.kind(k) {
            Some(TokenKind::Number(text)) => is_float_number(text),
            Some(TokenKind::Ident(s)) => {
                (s == "f64" || s == "f32") && (casts || self.ident(k.wrapping_sub(1)) != Some("as"))
            }
            _ => false,
        }
    }

    /// Index one past the balanced `op … cl` group opening at `open`.
    pub fn skip_group(&self, open: usize, op: char, cl: char) -> usize {
        self.skip(open, op, cl, false)
    }

    /// Index one past the balanced `< … >` group opening at `open`. An
    /// arrow `->` inside the group (`Fn() -> T` bounds) is opaque.
    pub fn skip_angles(&self, open: usize) -> usize {
        self.skip(open, '<', '>', true)
    }

    /// The first token in `from..end` where `stop` holds outside every
    /// `()`, `[]` and `{}` group, or `end`. `stop` runs before a token
    /// opens or closes a group, so it can match an unbalanced closer; a
    /// closer with nothing open is ignored.
    pub fn depth0(&self, from: usize, end: usize, mut stop: impl FnMut(usize) -> bool) -> usize {
        let mut depth = 0usize;
        let mut k = from;
        while k < end {
            if depth == 0 && stop(k) {
                return k;
            }
            match self.kind(k) {
                Some(TokenKind::Punct('(' | '[' | '{')) => depth += 1,
                Some(TokenKind::Punct(')' | ']' | '}')) => depth = depth.saturating_sub(1),
                Some(TokenKind::Punct('<')) if self.types => {
                    k = self.until(end).skip_angles(k);
                    continue;
                }
                _ => {}
            }
            k += 1;
        }
        end
    }

    /// `r` cut at its depth-0 `sep` sequences (`","`, `"&&"`): the parts
    /// in order, empty ones included, so parts and separators tile `r`.
    pub fn split0(&self, r: Range<usize>, sep: &str) -> Vec<Range<usize>> {
        let width = sep.chars().count().max(1);
        let at = |k: usize| {
            k + width <= r.end && sep.chars().enumerate().all(|(d, c)| self.punct(k + d, c))
        };
        let mut parts = Vec::new();
        let mut start = r.start;
        loop {
            let k = self.depth0(start, r.end, at);
            parts.push(start..k);
            if k >= r.end {
                return parts;
            }
            start = k + width;
        }
    }

    fn skip(&self, open: usize, op: char, cl: char, arrows: bool) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.end {
            if arrows && self.punct(i, '-') && self.punct(i + 1, '>') {
                i += 1;
            } else if self.punct(i, op) {
                depth += 1;
            } else if self.punct(i, cl) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<(String, u32)> {
        tokenize(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokenKind::Ident(s) => Some((s, t.line)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn idents_carry_line_numbers() {
        let got = idents("let a = 1;\nlet bb = a;\n");
        assert_eq!(
            got,
            vec![
                ("let".into(), 1),
                ("a".into(), 1),
                ("let".into(), 2),
                ("bb".into(), 2),
                ("a".into(), 2)
            ]
        );
    }

    #[test]
    fn strings_hide_identifiers() {
        let got = idents("let s = \"HashMap::unwrap()\";");
        assert_eq!(got, vec![("let".into(), 1), ("s".into(), 1)]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let got = idents("let s = r##\"unwrap \" inner\"##; after");
        assert_eq!(
            got,
            vec![("let".into(), 1), ("s".into(), 1), ("after".into(), 1)]
        );
    }

    #[test]
    fn comments_are_kept_with_trailing_flag() {
        let toks = tokenize("x(); // tail\n// alone\n");
        let comments: Vec<(bool, u32)> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Comment { trailing, .. } => Some((*trailing, t.line)),
                _ => None,
            })
            .collect();
        assert_eq!(comments, vec![(true, 1), (false, 2)]);
    }

    #[test]
    fn nested_block_comments() {
        let got = idents("/* a /* b */ still comment */ code");
        assert_eq!(got, vec![("code".into(), 1)]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks.iter().any(|t| t.kind == TokenKind::Lifetime));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Literal));
    }

    #[test]
    fn raw_identifiers_lex_as_identifiers() {
        let got = idents("fn r#type(r#fn: u32) {}");
        assert_eq!(
            got,
            vec![
                ("fn".into(), 1),
                ("type".into(), 1),
                ("fn".into(), 1),
                ("u32".into(), 1)
            ]
        );
    }

    #[test]
    fn raw_identifier_does_not_break_raw_strings() {
        let got = idents("let s = r#\"unwrap\"#; r#match");
        assert_eq!(
            got,
            vec![("let".into(), 1), ("s".into(), 1), ("match".into(), 1)]
        );
    }

    #[test]
    fn shebang_line_is_a_comment() {
        let toks = tokenize("#!/usr/bin/env run-cargo-script\nfn f() {}\n");
        assert!(matches!(
            toks.first().map(|t| &t.kind),
            Some(TokenKind::Comment { .. })
        ));
        let got: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some((s.clone(), t.line)),
                _ => None,
            })
            .collect();
        assert_eq!(got, vec![("fn".into(), 2), ("f".into(), 2)]);
    }

    #[test]
    fn inner_attribute_is_not_a_shebang() {
        let toks = tokenize("#![warn(missing_docs)]\n");
        assert!(toks.iter().any(|t| t.kind == TokenKind::Punct('#')));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident("warn".into())));
    }

    #[test]
    fn unterminated_input_is_fine() {
        for src in ["\"abc", "/* abc", "r#\"abc", "'a", "b\"x", "'\\"] {
            let _ = tokenize(src); // must not panic
        }
    }
}
