//! A lightweight item tree over the lexer's token stream.
//!
//! The flat token rules (D1–D3, P1, U1) never needed to know *where* a
//! token lives; the hot-path and wire-protocol rules do. This module is a
//! single recursive-descent pass over [`crate::lexer`] output that
//! resolves `mod` / `fn` / `impl` / `trait` / `enum` / `use` structure and
//! attributes every function body to its module path, so rules can ask
//! "which function owns token 4021?" or "which variants does the enum
//! `FrameType` declare?" — including across files.
//!
//! It is deliberately *not* a Rust parser. Design limits, chosen so the
//! pass stays a few hundred lines and never mis-fires:
//!
//! * function bodies are opaque: nested `fn` items inside a body are
//!   attributed to the outer function, not recorded separately (the rules
//!   care about the outermost hot function anyway);
//! * expressions are never parsed — only item headers, which keeps the
//!   brace/angle tracking unambiguous;
//! * items generated by macro invocations are invisible (the macro body
//!   is skipped as a balanced token group);
//! * on any construct it does not recognise it skips one token and
//!   resyncs, so a file `rustc` would reject still yields a best-effort
//!   tree (the same tolerance contract as the lexer).
//!
//! All spans are indices into the *original* token vector (comments
//! included), so they line up with the per-token test mask the rule
//! engine already computes.

use crate::lexer::{Tok, Token};

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` or `mod name;`
    Mod,
    /// `fn name(…) { … }` (free, inherent, trait-default or trait-decl).
    Fn,
    /// `impl Type { … }` / `impl Trait for Type { … }` (name = self type).
    Impl,
    /// `trait Name { … }`.
    Trait,
    /// `enum Name { … }` (variants recorded).
    Enum,
    /// `struct` / `union` declaration.
    Struct,
    /// `use path::to::thing;` (name holds the rendered path).
    Use,
    /// `const NAME: T = …;` / `static NAME: T = …;`
    Const,
    /// `type Alias = …;`
    TypeAlias,
    /// `macro_rules! name { … }`.
    MacroDef,
}

/// One enum variant: name and declaration line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// The variant identifier.
    pub name: String,
    /// 1-based line of the variant identifier.
    pub line: u32,
}

/// One resolved item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item kind.
    pub kind: ItemKind,
    /// Bare name (`receive_with`; for `use` items the rendered path).
    pub name: String,
    /// Fully qualified name through enclosing modules, impls and traits
    /// (`rx::Receiver::receive_with`). Equals `name` at the crate root.
    pub qual: String,
    /// 1-based line of the item keyword.
    pub line: u32,
    /// Inclusive token-index span of the whole item (original indices).
    pub span: (usize, usize),
    /// Token-index span of the braced body, `{` and `}` inclusive
    /// (`None` for `mod name;`, trait method declarations, etc.).
    pub body: Option<(usize, usize)>,
    /// Enum variants, in declaration order (empty unless `kind == Enum`).
    pub variants: Vec<Variant>,
}

impl Item {
    /// True when `pat` names this item: either the full qualified name or
    /// a trailing `::`-separated suffix of it (`Receiver::receive_with`
    /// matches `rx::Receiver::receive_with`).
    pub fn named(&self, pat: &str) -> bool {
        self.qual == pat || self.qual.ends_with(&format!("::{pat}"))
    }
}

/// The item tree of one file: a flat list of items with qualified names
/// (the hierarchy is implicit in `qual` and the spans).
#[derive(Debug, Default)]
pub struct ItemTree {
    /// Every resolved item, in source order.
    pub items: Vec<Item>,
}

impl ItemTree {
    /// Builds the tree for one file's token stream.
    pub fn parse(tokens: &[Token]) -> ItemTree {
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !matches!(tokens[i].kind, Tok::LineComment(_) | Tok::BlockComment(_)))
            .collect();
        let mut p = Parser {
            tokens,
            code,
            pos: 0,
            items: Vec::new(),
        };
        let mut path = Vec::new();
        p.parse_items(&mut path, false);
        ItemTree { items: p.items }
    }

    /// All function items.
    pub fn fns(&self) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(|i| i.kind == ItemKind::Fn)
    }

    /// All enum items.
    pub fn enums(&self) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(|i| i.kind == ItemKind::Enum)
    }
}

struct Parser<'t> {
    tokens: &'t [Token],
    /// Indices of non-comment tokens.
    code: Vec<usize>,
    /// Cursor into `code`.
    pos: usize,
    items: Vec<Item>,
}

impl<'t> Parser<'t> {
    fn tok(&self, ci: usize) -> Option<&Tok> {
        self.code.get(ci).map(|&ti| &self.tokens[ti].kind)
    }

    fn ident(&self, ci: usize) -> Option<&str> {
        match self.tok(ci) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn punct(&self, ci: usize) -> Option<char> {
        match self.tok(ci) {
            Some(&Tok::Punct(c)) => Some(c),
            _ => None,
        }
    }

    fn line(&self, ci: usize) -> u32 {
        self.code
            .get(ci)
            .map(|&ti| self.tokens[ti].line)
            .unwrap_or(0)
    }

    /// Original token index for code cursor `ci` (saturating at the end).
    fn orig(&self, ci: usize) -> usize {
        self.code
            .get(ci)
            .copied()
            .unwrap_or_else(|| self.tokens.len().saturating_sub(1))
    }

    /// Parses items until end of input, or — when `in_block` — until the
    /// `}` closing the current block (consumed).
    fn parse_items(&mut self, path: &mut Vec<String>, in_block: bool) {
        while self.pos < self.code.len() {
            if in_block && self.punct(self.pos) == Some('}') {
                self.pos += 1;
                return;
            }
            self.item(path);
        }
    }

    /// Parses (or skips) one item at the cursor.
    fn item(&mut self, path: &mut Vec<String>) {
        // Attributes: `#[…]` and `#![…]`, possibly stacked.
        if self.punct(self.pos) == Some('#') {
            let mut ci = self.pos + 1;
            if self.punct(ci) == Some('!') {
                ci += 1;
            }
            if self.punct(ci) == Some('[') {
                self.pos = self.skip_group(ci, '[', ']');
                return;
            }
            self.pos += 1; // stray `#`
            return;
        }

        // Visibility and modifiers in front of the item keyword.
        loop {
            match self.ident(self.pos) {
                Some("pub") => {
                    self.pos += 1;
                    if self.punct(self.pos) == Some('(') {
                        self.pos = self.skip_group(self.pos, '(', ')');
                    }
                }
                Some("default") | Some("async") => self.pos += 1,
                Some("unsafe")
                    if matches!(
                        self.ident(self.pos + 1),
                        Some("fn" | "impl" | "trait" | "extern")
                    ) =>
                {
                    self.pos += 1;
                }
                Some("const")
                    if matches!(
                        self.ident(self.pos + 1),
                        Some("fn" | "unsafe" | "extern" | "async")
                    ) =>
                {
                    self.pos += 1;
                }
                Some("extern")
                    if matches!(self.tok(self.pos + 1), Some(Tok::Str(_)))
                        && self.ident(self.pos + 2) == Some("fn") =>
                {
                    self.pos += 2;
                }
                _ => break,
            }
        }

        match self.ident(self.pos) {
            Some("mod") => self.item_mod(path),
            Some("fn") => self.item_fn(path),
            Some("impl") => self.item_impl(path),
            Some("trait") => self.item_trait(path),
            Some("enum") => self.item_enum(path),
            Some("struct") | Some("union") => self.item_struct(path),
            Some("use") => self.item_use(path),
            Some("const") | Some("static") => self.item_const(path),
            Some("type") => self.item_type(path),
            Some("macro_rules") => self.item_macro_rules(path),
            Some("extern") => {
                // `extern crate x;` or a foreign `extern "C" { … }` block:
                // skip either form without recording.
                self.pos += 1;
                while self.pos < self.code.len() {
                    match self.punct(self.pos) {
                        Some(';') => {
                            self.pos += 1;
                            break;
                        }
                        Some('{') => {
                            self.pos = self.skip_group(self.pos, '{', '}');
                            break;
                        }
                        _ => self.pos += 1,
                    }
                }
            }
            Some(_) if self.punct(self.pos + 1) == Some('!') => {
                // Macro invocation in item position (`thread_local! { … }`):
                // skip the path, the `!`, an optional ident, the delimited
                // group, and a trailing `;` if present.
                self.pos += 2;
                if self.ident(self.pos).is_some() {
                    self.pos += 1;
                }
                match self.punct(self.pos) {
                    Some('(') => self.pos = self.skip_group(self.pos, '(', ')'),
                    Some('[') => self.pos = self.skip_group(self.pos, '[', ']'),
                    Some('{') => self.pos = self.skip_group(self.pos, '{', '}'),
                    _ => {}
                }
                if self.punct(self.pos) == Some(';') {
                    self.pos += 1;
                }
            }
            _ => self.pos += 1, // unrecognised: resync one token
        }
    }

    fn qual(path: &[String], name: &str) -> String {
        if path.is_empty() {
            name.to_string()
        } else {
            format!("{}::{name}", path.join("::"))
        }
    }

    fn push_item(&mut self, item: Item) {
        self.items.push(item);
    }

    fn item_mod(&mut self, path: &mut Vec<String>) {
        let start = self.pos;
        self.pos += 1;
        let Some(name) = self.ident(self.pos).map(str::to_string) else {
            return;
        };
        self.pos += 1;
        let line = self.line(start);
        match self.punct(self.pos) {
            Some(';') => {
                self.pos += 1;
                self.push_item(Item {
                    kind: ItemKind::Mod,
                    qual: Self::qual(path, &name),
                    name,
                    line,
                    span: (self.orig(start), self.orig(self.pos - 1)),
                    body: None,
                    variants: Vec::new(),
                });
            }
            Some('{') => {
                let open = self.pos;
                let slot = self.items.len();
                self.push_item(Item {
                    kind: ItemKind::Mod,
                    qual: Self::qual(path, &name),
                    name: name.clone(),
                    line,
                    span: (self.orig(start), self.orig(open)),
                    body: None,
                    variants: Vec::new(),
                });
                self.pos += 1;
                path.push(name);
                self.parse_items(path, true);
                path.pop();
                let end = self.orig(self.pos.saturating_sub(1));
                self.items[slot].span.1 = end;
                self.items[slot].body = Some((self.orig(open), end));
            }
            _ => {}
        }
    }

    fn item_fn(&mut self, path: &mut [String]) {
        let start = self.pos;
        self.pos += 1;
        let Some(name) = self.ident(self.pos).map(str::to_string) else {
            return;
        };
        self.pos += 1;
        let line = self.line(start);
        // Scan the signature to the body `{` or terminating `;`. Angle
        // depth tracks generics; a `>` preceded by `-` is the return
        // arrow, not a closer.
        let mut angle = 0i32;
        let mut paren = 0i32;
        while self.pos < self.code.len() {
            match self.punct(self.pos) {
                Some('<') => angle += 1,
                Some('>') if self.punct(self.pos.wrapping_sub(1)) != Some('-') => angle -= 1,
                Some('(') | Some('[') => paren += 1,
                Some(')') | Some(']') => paren -= 1,
                Some(';') if paren == 0 && angle <= 0 => {
                    self.pos += 1;
                    self.push_item(Item {
                        kind: ItemKind::Fn,
                        qual: Self::qual(path, &name),
                        name,
                        line,
                        span: (self.orig(start), self.orig(self.pos - 1)),
                        body: None,
                        variants: Vec::new(),
                    });
                    return;
                }
                Some('{') if paren == 0 && angle <= 0 => {
                    let open = self.pos;
                    self.pos = self.skip_group(open, '{', '}');
                    let (o, c) = (self.orig(open), self.orig(self.pos - 1));
                    self.push_item(Item {
                        kind: ItemKind::Fn,
                        qual: Self::qual(path, &name),
                        name,
                        line,
                        span: (self.orig(start), c),
                        body: Some((o, c)),
                        variants: Vec::new(),
                    });
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    fn item_impl(&mut self, path: &mut Vec<String>) {
        let start = self.pos;
        self.pos += 1;
        // Header: everything up to the `{` at angle/paren depth 0. The
        // self type is the last depth-0 ident of the path after `for` (a
        // trait impl) or before `where`/`{` (an inherent impl).
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut after_for = false;
        let mut in_where = false;
        let mut self_ty = String::new();
        let mut ty_after_for = String::new();
        while self.pos < self.code.len() {
            match self.tok(self.pos) {
                Some(Tok::Punct('<')) => angle += 1,
                Some(Tok::Punct('>')) if self.punct(self.pos.wrapping_sub(1)) != Some('-') => {
                    angle -= 1
                }
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => paren += 1,
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => paren -= 1,
                Some(Tok::Punct('{')) if angle <= 0 && paren == 0 => break,
                Some(Tok::Punct(';')) if angle <= 0 && paren == 0 => {
                    // Degenerate/unterminated header; give up on this item.
                    self.pos += 1;
                    return;
                }
                Some(Tok::Ident(s)) if angle <= 0 && paren == 0 => match s.as_str() {
                    "for" => after_for = true,
                    "where" => in_where = true,
                    s if !in_where => {
                        if after_for {
                            ty_after_for = s.to_string();
                        } else {
                            self_ty = s.to_string();
                        }
                    }
                    _ => {}
                },
                _ => {}
            }
            self.pos += 1;
        }
        if !ty_after_for.is_empty() {
            self_ty = ty_after_for;
        }
        if self.pos >= self.code.len() {
            return;
        }
        let open = self.pos;
        let line = self.line(start);
        let slot = self.items.len();
        self.push_item(Item {
            kind: ItemKind::Impl,
            qual: Self::qual(path, &self_ty),
            name: self_ty.clone(),
            line,
            span: (self.orig(start), self.orig(open)),
            body: None,
            variants: Vec::new(),
        });
        self.pos += 1;
        path.push(self_ty);
        self.parse_items(path, true);
        path.pop();
        let end = self.orig(self.pos.saturating_sub(1));
        self.items[slot].span.1 = end;
        self.items[slot].body = Some((self.orig(open), end));
    }

    fn item_trait(&mut self, path: &mut Vec<String>) {
        let start = self.pos;
        self.pos += 1;
        let Some(name) = self.ident(self.pos).map(str::to_string) else {
            return;
        };
        self.pos += 1;
        // Skip generics, supertrait bounds and where clause to the `{`.
        let mut angle = 0i32;
        let mut paren = 0i32;
        while self.pos < self.code.len() {
            match self.punct(self.pos) {
                Some('<') => angle += 1,
                Some('>') if self.punct(self.pos.wrapping_sub(1)) != Some('-') => angle -= 1,
                Some('(') | Some('[') => paren += 1,
                Some(')') | Some(']') => paren -= 1,
                Some('{') if angle <= 0 && paren == 0 => break,
                Some(';') if angle <= 0 && paren == 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
        if self.pos >= self.code.len() {
            return;
        }
        let open = self.pos;
        let line = self.line(start);
        let slot = self.items.len();
        self.push_item(Item {
            kind: ItemKind::Trait,
            qual: Self::qual(path, &name),
            name: name.clone(),
            line,
            span: (self.orig(start), self.orig(open)),
            body: None,
            variants: Vec::new(),
        });
        self.pos += 1;
        path.push(name);
        self.parse_items(path, true);
        path.pop();
        let end = self.orig(self.pos.saturating_sub(1));
        self.items[slot].span.1 = end;
        self.items[slot].body = Some((self.orig(open), end));
    }

    fn item_enum(&mut self, path: &mut [String]) {
        let start = self.pos;
        self.pos += 1;
        let Some(name) = self.ident(self.pos).map(str::to_string) else {
            return;
        };
        self.pos += 1;
        // Skip generics / where to the `{`.
        let mut angle = 0i32;
        while self.pos < self.code.len() {
            match self.punct(self.pos) {
                Some('<') => angle += 1,
                Some('>') => angle -= 1,
                Some('{') if angle <= 0 => break,
                Some(';') if angle <= 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
        if self.pos >= self.code.len() {
            return;
        }
        let open = self.pos;
        self.pos += 1;
        // Variants at depth 1: after `{` or a depth-1 `,`, skip attributes,
        // take the first ident, then consume the payload/discriminant to
        // the next depth-1 `,` or the closing `}`.
        let mut variants = Vec::new();
        let mut expect_variant = true;
        let mut depth = 1i32;
        while self.pos < self.code.len() && depth > 0 {
            if expect_variant && self.punct(self.pos) == Some('#') {
                let mut ci = self.pos + 1;
                if self.punct(ci) == Some('!') {
                    ci += 1;
                }
                if self.punct(ci) == Some('[') {
                    self.pos = self.skip_group(ci, '[', ']');
                    continue;
                }
            }
            match self.tok(self.pos) {
                Some(Tok::Punct('{')) | Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => depth += 1,
                Some(Tok::Punct('}')) | Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => depth -= 1,
                Some(Tok::Punct(',')) if depth == 1 => expect_variant = true,
                Some(Tok::Ident(s)) if expect_variant && depth == 1 => {
                    variants.push(Variant {
                        name: s.clone(),
                        line: self.line(self.pos),
                    });
                    expect_variant = false;
                }
                _ => {}
            }
            self.pos += 1;
        }
        let end = self.orig(self.pos.saturating_sub(1));
        self.push_item(Item {
            kind: ItemKind::Enum,
            qual: Self::qual(path, &name),
            name,
            line: self.line(start),
            span: (self.orig(start), end),
            body: Some((self.orig(open), end)),
            variants,
        });
    }

    fn item_struct(&mut self, path: &mut [String]) {
        let start = self.pos;
        self.pos += 1;
        let Some(name) = self.ident(self.pos).map(str::to_string) else {
            return;
        };
        self.pos += 1;
        let mut angle = 0i32;
        while self.pos < self.code.len() {
            match self.punct(self.pos) {
                Some('<') => {
                    angle += 1;
                    self.pos += 1;
                }
                Some('>') => {
                    angle -= 1;
                    self.pos += 1;
                }
                Some(';') if angle <= 0 => {
                    self.pos += 1;
                    break;
                }
                Some('(') if angle <= 0 => {
                    // Tuple struct: skip fields, then the trailing
                    // where-clause/`;` on the next loop iterations.
                    self.pos = self.skip_group(self.pos, '(', ')');
                }
                Some('{') if angle <= 0 => {
                    self.pos = self.skip_group(self.pos, '{', '}');
                    break;
                }
                _ => self.pos += 1,
            }
        }
        self.push_item(Item {
            kind: ItemKind::Struct,
            qual: Self::qual(path, &name),
            name,
            line: self.line(start),
            span: (self.orig(start), self.orig(self.pos.saturating_sub(1))),
            body: None,
            variants: Vec::new(),
        });
    }

    fn item_use(&mut self, path: &mut [String]) {
        let start = self.pos;
        self.pos += 1;
        let mut rendered = String::new();
        while self.pos < self.code.len() {
            match self.tok(self.pos) {
                Some(Tok::Punct(';')) => {
                    self.pos += 1;
                    break;
                }
                Some(Tok::Ident(s)) => {
                    rendered.push_str(s);
                    self.pos += 1;
                }
                Some(&Tok::Punct(c)) => {
                    rendered.push(c);
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push_item(Item {
            kind: ItemKind::Use,
            qual: Self::qual(path, &rendered),
            name: rendered,
            line: self.line(start),
            span: (self.orig(start), self.orig(self.pos.saturating_sub(1))),
            body: None,
            variants: Vec::new(),
        });
    }

    fn item_const(&mut self, path: &mut [String]) {
        let start = self.pos;
        self.pos += 1;
        if self.ident(self.pos) == Some("mut") {
            self.pos += 1;
        }
        // `const _: () = …;` uses `_`, which lexes as an ident.
        let name = self.ident(self.pos).unwrap_or("_").to_string();
        self.pos += 1;
        // To the terminating `;` at all-bracket depth 0 (initializers may
        // contain braced struct literals and nested arrays).
        let mut depth = 0i32;
        while self.pos < self.code.len() {
            match self.punct(self.pos) {
                Some('(') | Some('[') | Some('{') => depth += 1,
                Some(')') | Some(']') | Some('}') => depth -= 1,
                Some(';') if depth == 0 => {
                    self.pos += 1;
                    break;
                }
                _ => {}
            }
            self.pos += 1;
        }
        self.push_item(Item {
            kind: ItemKind::Const,
            qual: Self::qual(path, &name),
            name,
            line: self.line(start),
            span: (self.orig(start), self.orig(self.pos.saturating_sub(1))),
            body: None,
            variants: Vec::new(),
        });
    }

    fn item_type(&mut self, path: &mut [String]) {
        let start = self.pos;
        self.pos += 1;
        let Some(name) = self.ident(self.pos).map(str::to_string) else {
            return;
        };
        while self.pos < self.code.len() && self.punct(self.pos) != Some(';') {
            self.pos += 1;
        }
        self.pos += 1;
        self.push_item(Item {
            kind: ItemKind::TypeAlias,
            qual: Self::qual(path, &name),
            name,
            line: self.line(start),
            span: (self.orig(start), self.orig(self.pos.saturating_sub(1))),
            body: None,
            variants: Vec::new(),
        });
    }

    fn item_macro_rules(&mut self, path: &mut [String]) {
        let start = self.pos;
        self.pos += 1; // macro_rules
        if self.punct(self.pos) == Some('!') {
            self.pos += 1;
        }
        let name = self.ident(self.pos).unwrap_or("_").to_string();
        self.pos += 1;
        if self.punct(self.pos) == Some('{') {
            self.pos = self.skip_group(self.pos, '{', '}');
        }
        self.push_item(Item {
            kind: ItemKind::MacroDef,
            qual: Self::qual(path, &name),
            name,
            line: self.line(start),
            span: (self.orig(start), self.orig(self.pos.saturating_sub(1))),
            body: None,
            variants: Vec::new(),
        });
    }

    /// Given the code index of an `open` delimiter, returns the code index
    /// one past its matching `close` (or end of input when unbalanced).
    fn skip_group(&self, open_ci: usize, open: char, close: char) -> usize {
        let mut depth = 0i32;
        let mut ci = open_ci;
        while ci < self.code.len() {
            match self.punct(ci) {
                Some(c) if c == open => depth += 1,
                Some(c) if c == close => {
                    depth -= 1;
                    if depth == 0 {
                        return ci + 1;
                    }
                }
                _ => {}
            }
            ci += 1;
        }
        self.code.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ItemTree {
        ItemTree::parse(&lex(src))
    }

    fn quals(src: &str, kind: ItemKind) -> Vec<String> {
        tree(src)
            .items
            .iter()
            .filter(|i| i.kind == kind)
            .map(|i| i.qual.clone())
            .collect()
    }

    #[test]
    fn free_and_nested_fns_get_module_paths() {
        let src = "\
fn top() {}
mod outer {
    pub fn mid() -> u32 { 1 }
    mod inner {
        fn deep(x: &[u8]) -> Vec<u8> { x.to_vec() }
    }
}
";
        assert_eq!(
            quals(src, ItemKind::Fn),
            vec!["top", "outer::mid", "outer::inner::deep"]
        );
    }

    #[test]
    fn impl_methods_carry_the_self_type() {
        let src = "\
struct Receiver;
impl Receiver {
    pub fn receive_with(&self) {}
    fn detect(&self) -> Option<usize> { None }
}
impl<'a> Iterator for Receiver {
    type Item = u8;
    fn next(&mut self) -> Option<u8> { None }
}
";
        assert_eq!(
            quals(src, ItemKind::Fn),
            vec![
                "Receiver::receive_with",
                "Receiver::detect",
                "Receiver::next"
            ]
        );
    }

    #[test]
    fn trait_impl_self_type_is_after_for_with_generics() {
        let src = "impl<T: Clone> From<Vec<T>> for Wrapper<T> where T: Default { fn from(v: Vec<T>) -> Self { todo!() } }";
        assert_eq!(quals(src, ItemKind::Fn), vec!["Wrapper::from"]);
    }

    #[test]
    fn enum_variants_with_payloads_and_discriminants() {
        let src = "\
pub enum FrameType {
    SubmitJob = 0x01,
    Error { code: u32, msg: String },
    Pair(u8, u8),
    /// Documented.
    #[allow(dead_code)]
    Last,
}
";
        let t = tree(src);
        let e = t.enums().next().expect("one enum");
        assert_eq!(e.qual, "FrameType");
        let names: Vec<&str> = e.variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["SubmitJob", "Error", "Pair", "Last"]);
        assert_eq!(e.variants[0].line, 2);
        assert_eq!(e.variants[3].line, 7);
    }

    #[test]
    fn bodies_are_opaque_but_signatures_with_generics_parse() {
        // Turbofish, 'static bounds, where clauses, return arrows: none of
        // these may derail the signature scan.
        let src = "\
fn tricky<T: Iterator<Item = &'static str>>(x: T) -> Vec<&'static str>
where
    T: Send + 'static,
{
    let inner = |y: u32| -> u32 { y + 1 };
    if x.size_hint().0 > 0 { return Vec::new(); }
    x.collect::<Vec<&'static str>>()
}
fn after() {}
";
        let t = tree(src);
        let names: Vec<&str> = t.fns().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["tricky", "after"]);
    }

    #[test]
    fn use_items_render_their_paths() {
        let src = "use std::collections::BTreeMap;\nmod m { use super::*; }";
        assert_eq!(
            quals(src, ItemKind::Use),
            vec!["std::collections::BTreeMap", "m::super::*"]
        );
    }

    #[test]
    fn named_matches_suffix() {
        let t = tree("mod rx { struct R; impl R { fn go(&self) {} } }");
        let f = t.fns().next().expect("fn");
        assert_eq!(f.qual, "rx::R::go");
        assert!(f.named("R::go"));
        assert!(f.named("rx::R::go"));
        assert!(!f.named("go2"));
        assert!(!f.named("x::R::go"));
    }

    #[test]
    fn macro_invocations_and_extern_blocks_are_skipped() {
        let src = "\
thread_local! { static TL: u32 = 0; }
extern \"C\" { fn strlen(s: *const u8) -> usize; }
fn real() {}
";
        let t = tree(src);
        let names: Vec<&str> = t.fns().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn consts_with_braced_initializers_do_not_derail() {
        let src = "\
const TABLE: [P; 2] = [P { a: 1 }, P { a: 2 }];
static mut COUNTER: u32 = 0;
fn next() {}
";
        let t = tree(src);
        assert_eq!(quals(src, ItemKind::Const), vec!["TABLE", "COUNTER"]);
        assert_eq!(t.fns().next().map(|f| f.name.as_str()), Some("next"));
    }
}
