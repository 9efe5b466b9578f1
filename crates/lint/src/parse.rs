//! A lightweight item parser on top of the lexer.
//!
//! Turns a file's code-token stream into just enough structure for
//! workspace-level analysis: a brace tree, the module/impl scope every
//! `fn` lives in, `use` declarations (so call paths can be normalized
//! against workspace-local imports), and — per function body — the raw
//! call sites and panic-capable sites the call-graph rules consume.
//!
//! This is deliberately not a Rust grammar. It is a token-pattern
//! recognizer that never fails: unknown constructs are skipped, broken
//! files degrade to fewer recognized items, and every recognizer is
//! bounded by the brace tree so a confused scan cannot run away.

use crate::lexer::Token;
use crate::lexer::TokenKind;
use std::collections::BTreeMap;

/// Keywords that look like `ident (` but are never calls.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
    "yield",
];

/// Whether `name` is a Rust keyword (of the subset that matters here).
pub fn is_keyword(name: &str) -> bool {
    KEYWORDS.binary_search(&name).is_ok()
}

/// One `{ … }` region, by code-token index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BraceNode {
    /// Code-token index of the `{`.
    pub open: usize,
    /// Code-token index of the matching `}` (last token when unbalanced).
    pub close: usize,
    /// Directly nested brace regions, in source order.
    pub children: Vec<BraceNode>,
}

/// A function item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Enclosing `mod` names within the file, outermost first.
    pub module_path: Vec<String>,
    /// The `impl` block's self type (last path segment), when inside one.
    pub impl_type: Option<String>,
    /// Whether the item carries any `pub` marker (`pub`, `pub(crate)`, …).
    pub is_pub: bool,
    /// 1-based position of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Code-token indices of the body's `{` and `}`; `None` for
    /// body-less trait declarations.
    pub body: Option<(usize, usize)>,
}

/// What a call site refers to, before symbol resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RawCallee {
    /// `a::b::f(…)` or `f(…)` — path segments after local `use`
    /// normalization.
    Path(Vec<String>),
    /// `recv.m(…)` — resolved later by method name against every
    /// workspace `impl`.
    Method(String),
}

/// One call site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawCall {
    /// The callee reference.
    pub callee: RawCallee,
    /// 1-based line of the callee name.
    pub line: u32,
    /// 1-based column of the callee name.
    pub col: u32,
}

/// One site that can panic at runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawPanic {
    /// Human description: `.unwrap()`, `panic!`, `index into a call
    /// result`, …
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Parse result for one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// The brace forest over code tokens.
    pub tree: Vec<BraceNode>,
    /// Every recognized `fn` item, in source order.
    pub fns: Vec<FnDef>,
    /// `use` aliases: local name → full path segments.
    pub uses: BTreeMap<String, Vec<String>>,
}

/// Builds the brace forest over `code` (comment-free tokens).
/// Unbalanced braces are tolerated: stray `}` are ignored, unterminated
/// `{` close at the last token.
pub fn brace_forest(code: &[&Token]) -> Vec<BraceNode> {
    let mut roots: Vec<BraceNode> = Vec::new();
    let mut stack: Vec<BraceNode> = Vec::new();
    let attach =
        |node: BraceNode, stack: &mut Vec<BraceNode>, roots: &mut Vec<BraceNode>| match stack
            .last_mut()
        {
            Some(parent) => parent.children.push(node),
            None => roots.push(node),
        };
    for (i, t) in code.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(BraceNode {
                open: i,
                close: usize::MAX,
                children: Vec::new(),
            });
        } else if t.is_punct('}') {
            if let Some(mut node) = stack.pop() {
                node.close = i;
                attach(node, &mut stack, &mut roots);
            }
        }
    }
    while let Some(mut node) = stack.pop() {
        node.close = code.len().saturating_sub(1);
        attach(node, &mut stack, &mut roots);
    }
    roots
}

/// For each code-token index of a `(`/`[`/`{`, the index of its matching
/// closer (or the last token when unbalanced). Other indices map to
/// themselves.
pub fn matching_pairs(code: &[&Token]) -> Vec<usize> {
    let mut close: Vec<usize> = (0..code.len()).collect();
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        for (open, shut) in [('(', ')'), ('[', ']'), ('{', '}')] {
            if t.is_punct(open) {
                stack.push((shut, i));
            } else if t.is_punct(shut) {
                // Pop through mismatched entries so one stray bracket
                // cannot desynchronize the rest of the file.
                while let Some((want, at)) = stack.pop() {
                    if want == shut {
                        close[at] = i;
                        break;
                    }
                    close[at] = code.len().saturating_sub(1);
                }
            }
        }
    }
    for (_, at) in stack {
        close[at] = code.len().saturating_sub(1);
    }
    close
}

/// Scope kinds tracked while walking items.
#[derive(Clone, Debug)]
enum Scope {
    Module(String),
    Impl(String),
}

/// Parses `code` into items. Never fails.
pub fn parse_file(code: &[&Token]) -> ParsedFile {
    let tree = brace_forest(code);
    let pairs = matching_pairs(code);
    let mut fns = Vec::new();
    let mut uses = BTreeMap::new();
    // (scope, close-token index) — popped once the walk passes `close`.
    let mut scopes: Vec<(Scope, usize)> = Vec::new();

    let mut i = 0usize;
    while i < code.len() {
        while let Some((_, close)) = scopes.last() {
            if i > *close {
                scopes.pop();
            } else {
                break;
            }
        }
        let t = code[i];

        // `mod name { … }` — inline module. (`mod name;` has no body and
        // contributes nothing here; the file walker supplies the
        // file-level module path.)
        if t.is_ident("mod") {
            if let (Some(name), Some(brace)) = (code.get(i + 1), code.get(i + 2)) {
                if name.kind == TokenKind::Ident && brace.is_punct('{') {
                    scopes.push((Scope::Module(name.text.clone()), pairs[i + 2]));
                    i += 3;
                    continue;
                }
            }
        }

        // `impl … { … }` — find the self type and enter the block.
        if t.is_ident("impl") {
            if let Some((ty, open)) = parse_impl_header(code, i) {
                scopes.push((Scope::Impl(ty), pairs[open]));
                i = open + 1;
                continue;
            }
        }

        // `use path::{…};`
        if t.is_ident("use") {
            let end = parse_use(code, i + 1, &mut uses);
            i = end;
            continue;
        }

        // `fn name … { … }` or `fn name …;`
        if t.is_ident("fn") {
            if let Some(name_tok) = code.get(i + 1) {
                if name_tok.kind == TokenKind::Ident && !is_keyword(&name_tok.text) {
                    let (module_path, impl_type) = scope_context(&scopes);
                    let body = parse_fn_body(code, &pairs, i);
                    fns.push(FnDef {
                        name: name_tok.text.clone(),
                        module_path,
                        impl_type,
                        is_pub: has_pub_marker(code, i),
                        line: t.line,
                        col: t.col,
                        body,
                    });
                    // Continue scanning *inside* the body too: nested fns
                    // and closures containing items are rare but legal.
                    i += 2;
                    continue;
                }
            }
        }

        i += 1;
    }

    ParsedFile { tree, fns, uses }
}

/// The current module path and impl type from the scope stack.
fn scope_context(scopes: &[(Scope, usize)]) -> (Vec<String>, Option<String>) {
    let mut modules = Vec::new();
    let mut impl_type = None;
    for (scope, _) in scopes {
        match scope {
            Scope::Module(name) => modules.push(name.clone()),
            Scope::Impl(ty) => impl_type = Some(ty.clone()),
        }
    }
    (modules, impl_type)
}

/// From the `impl` keyword at `at`, finds the self type's last path
/// segment and the body's `{` index. Returns `None` for malformed or
/// body-less (`impl Trait for Type;`) headers.
fn parse_impl_header(code: &[&Token], at: usize) -> Option<(String, usize)> {
    let mut angle = 0i32;
    let mut last_ident_at_depth0: Option<&str> = None;
    let mut after_for: Option<&str> = None;
    let mut saw_for = false;
    let mut j = at + 1;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // `->` never appears in an impl header before the `{`.
            angle = (angle - 1).max(0);
        } else if angle == 0 {
            if t.is_punct('{') {
                let ty = after_for.or(last_ident_at_depth0)?;
                return Some((ty.to_owned(), j));
            }
            if t.is_punct(';') {
                return None;
            }
            if t.is_ident("for") {
                saw_for = true;
                after_for = None;
            } else if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
                last_ident_at_depth0 = Some(&t.text);
                if saw_for {
                    after_for = Some(&t.text);
                }
            }
        }
        j += 1;
    }
    None
}

/// From the `fn` keyword at `at`, finds the body braces. Walks the
/// signature angle-aware so `-> Vec<Node<'a>>` cannot derail the scan.
fn parse_fn_body(code: &[&Token], pairs: &[usize], at: usize) -> Option<(usize, usize)> {
    // Skip to the parameter list, stepping over `<generics>`.
    let mut j = at + 2;
    let mut angle = 0i32;
    while j < code.len() {
        let t = code[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle <= 0 && t.is_punct('(') {
            break;
        } else if t.is_punct('{') || t.is_punct(';') {
            return None; // not a function signature after all
        }
        j += 1;
    }
    if j >= code.len() {
        return None;
    }
    // Past the parameters; scan the return type / where clause.
    let mut k = pairs[j] + 1;
    let mut angle = 0i32;
    while k < code.len() {
        let t = code[k];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // Either a generic closer or the `>` of `->`; both only
            // ever *decrease* pending generic depth here.
            angle = (angle - 1).max(0);
        } else if t.is_punct('(') || t.is_punct('[') {
            k = pairs[k];
        } else if t.is_punct('{') {
            return Some((k, pairs[k]));
        } else if t.is_punct(';') || t.is_punct('}') {
            return None;
        }
        k += 1;
    }
    None
}

/// Whether the item keyword at `at` carries a `pub` marker. Walks back
/// over the qualifiers that may sit between (`const`, `unsafe`, `async`,
/// `extern "C"`, `pub(crate)`, …).
fn has_pub_marker(code: &[&Token], at: usize) -> bool {
    let mut j = at;
    while j > 0 {
        j -= 1;
        let t = code[j];
        if t.is_ident("pub") {
            return true;
        }
        let qualifier = matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern")
            || t.kind == TokenKind::Literal // the "C" of `extern "C"`
            || t.is_punct(')')
            || t.is_punct('(')
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_ident("self")
            || t.is_ident("in");
        if !qualifier {
            return false;
        }
    }
    false
}

/// Parses one `use` declaration starting after the `use` keyword,
/// recording `alias → full path` entries. Returns the index just past
/// the terminating `;`.
fn parse_use(code: &[&Token], start: usize, uses: &mut BTreeMap<String, Vec<String>>) -> usize {
    let mut end = start;
    while end < code.len() && !code[end].is_punct(';') {
        end += 1;
    }
    parse_use_tree(code, start, end, &[], uses);
    end + 1
}

/// Recursive descent over a use tree: `prefix::{a, b as c, d::e::*}`.
fn parse_use_tree(
    code: &[&Token],
    start: usize,
    end: usize,
    prefix: &[String],
    uses: &mut BTreeMap<String, Vec<String>>,
) {
    let mut path: Vec<String> = prefix.to_vec();
    let mut i = start;
    while i < end {
        let t = code[i];
        if t.kind == TokenKind::Ident && t.text != "as" {
            path.push(t.text.clone());
            i += 1;
        } else if t.is_punct(':') {
            i += 1; // `::` separators
        } else if t.is_punct('{') {
            // Group: split on top-level commas, recurse per entry.
            let mut depth = 0i32;
            let mut entry_start = i + 1;
            let mut j = i + 1;
            while j < end {
                let u = code[j];
                if u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct('}') {
                    if depth == 0 {
                        parse_use_tree(code, entry_start, j, &path, uses);
                        break;
                    }
                    depth -= 1;
                } else if u.is_punct(',') && depth == 0 {
                    parse_use_tree(code, entry_start, j, &path, uses);
                    entry_start = j + 1;
                }
                j += 1;
            }
            return;
        } else if t.is_ident("as") {
            if let Some(alias) = code.get(i + 1) {
                if alias.kind == TokenKind::Ident && !path.is_empty() {
                    uses.insert(alias.text.clone(), path.clone());
                }
            }
            return;
        } else if t.is_punct('*') {
            return; // glob imports resolve nothing
        } else {
            i += 1;
        }
    }
    if path.len() > prefix.len() {
        if let Some(last) = path.last() {
            uses.insert(last.clone(), path.clone());
        }
    }
}

/// Extracts call sites and panic-capable sites from the body token range
/// `(open, close)` (exclusive of the braces themselves). `uses` is the
/// file's import map, applied so returned paths are pre-normalized.
pub fn body_calls(
    code: &[&Token],
    open: usize,
    close: usize,
    uses: &BTreeMap<String, Vec<String>>,
) -> (Vec<RawCall>, Vec<RawPanic>) {
    let mut calls = Vec::new();
    let mut panics = Vec::new();
    let lo = open + 1;
    let hi = close.min(code.len());

    for i in lo..hi {
        let t = code[i];
        let prev = |off: usize| i.checked_sub(off).map(|j| code[j]);
        let next = |off: usize| code.get(i + off).copied();

        // Panic-family macros.
        if t.kind == TokenKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && next(1).is_some_and(|n| n.is_punct('!'))
        {
            panics.push(RawPanic {
                what: format!("`{}!`", t.text),
                line: t.line,
                col: t.col,
            });
            continue;
        }

        // Indexing straight into a call result: `f(…)[…]`.
        if t.is_punct('[') && prev(1).is_some_and(|p| p.is_punct(')')) {
            panics.push(RawPanic {
                what: "index into a call result".to_owned(),
                line: t.line,
                col: t.col,
            });
            continue;
        }

        if t.kind != TokenKind::Ident || !next(1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // `ident (` — a call, a definition, or a control-flow keyword.
        if is_keyword(&t.text) {
            continue;
        }
        if prev(1).is_some_and(|p| p.is_ident("fn") || p.is_punct('!') || p.is_punct('|')) {
            continue; // definition, macro call, or closure parameter
        }
        if prev(1).is_some_and(|p| p.is_punct('.')) {
            // Method call. `.unwrap()` / `.expect()` are panic sites, not
            // workspace calls.
            if t.text == "unwrap" || t.text == "expect" {
                panics.push(RawPanic {
                    what: format!("`.{}()`", t.text),
                    line: t.line,
                    col: t.col,
                });
            } else {
                calls.push(RawCall {
                    callee: RawCallee::Method(t.text.clone()),
                    line: t.line,
                    col: t.col,
                });
            }
            continue;
        }
        // Path call: walk back over `seg::seg::` pairs.
        let mut segs = vec![t.text.clone()];
        let mut j = i;
        while j >= 3
            && code[j - 1].is_punct(':')
            && code[j - 2].is_punct(':')
            && code[j - 3].kind == TokenKind::Ident
        {
            segs.insert(0, code[j - 3].text.clone());
            j -= 3;
        }
        if j >= 1 && code[j - 1].is_punct('.') {
            // `recv.assoc::call()` cannot happen; `x.mod::f()` is not
            // valid Rust — but `.collect::<Vec<_>>()` puts a path after a
            // dot via turbofish handled below; treat a dotted head as a
            // method chain and skip.
            continue;
        }
        // Single-segment uppercase names are tuple-struct / enum
        // constructors (`Some(…)`, `PairKey(…)`), not function calls.
        if segs.len() == 1
            && segs[0]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
        {
            continue;
        }
        // Apply the file's `use` map to the leading segment.
        if let Some(full) = uses.get(&segs[0]) {
            if full.last() == Some(&segs[0]) {
                let mut spliced = full.clone();
                spliced.extend(segs.drain(1..));
                segs = spliced;
            }
        }
        calls.push(RawCall {
            callee: RawCallee::Path(segs),
            line: t.line,
            col: t.col,
        });
    }
    (calls, panics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parsed(src: &str) -> (Vec<Token>, ParsedFile) {
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let file = parse_file(&code);
        (tokens.clone(), file)
    }

    #[test]
    fn finds_fns_with_scopes() {
        let src = r#"
pub fn top() {}
mod inner {
    pub(crate) fn nested() {}
    impl Widget {
        pub fn method(&self) -> u32 { 1 }
        fn private_method(&self) {}
    }
}
impl fmt::Display for OperonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}
"#;
        let (_, file) = parsed(src);
        let names: Vec<(&str, &[String], Option<&str>, bool)> = file
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.module_path.as_slice(),
                    f.impl_type.as_deref(),
                    f.is_pub,
                )
            })
            .collect();
        assert_eq!(names.len(), 5);
        assert_eq!(names[0], ("top", &[][..], None, true));
        assert_eq!(names[1].0, "nested");
        assert_eq!(names[1].1, &["inner".to_owned()][..]);
        assert!(names[1].3, "pub(crate) counts as pub");
        assert_eq!(
            names[2],
            ("method", &["inner".to_owned()][..], Some("Widget"), true)
        );
        assert_eq!(
            names[3],
            (
                "private_method",
                &["inner".to_owned()][..],
                Some("Widget"),
                false
            )
        );
        assert_eq!(names[4].0, "fmt");
        assert_eq!(names[4].2, Some("OperonError"));
        assert!(!names[4].3);
    }

    #[test]
    fn generic_signatures_do_not_derail_bodies() {
        let src = "fn f<T: Into<String>>(x: Vec<Node<'static>>) -> BTreeMap<u32, Vec<u8>> where T: Clone { body() }";
        let (_, file) = parsed(src);
        assert_eq!(file.fns.len(), 1);
        let body = file.fns[0].body.expect("has body");
        assert!(body.0 < body.1);
    }

    #[test]
    fn trait_decls_have_no_body() {
        let (_, file) =
            parsed("trait T { fn required(&self) -> u32; fn given(&self) -> u32 { 1 } }");
        assert_eq!(file.fns.len(), 2);
        assert!(file.fns[0].body.is_none());
        assert!(file.fns[1].body.is_some());
    }

    #[test]
    fn use_groups_and_aliases() {
        let src = "use std::collections::{BTreeMap, BTreeSet};\nuse operon_mcmf::McmfGraph as Graph;\nuse crate::lr::select_lr;\n";
        let (_, file) = parsed(src);
        assert_eq!(
            file.uses.get("BTreeMap").unwrap(),
            &["std", "collections", "BTreeMap"]
        );
        assert_eq!(
            file.uses.get("Graph").unwrap(),
            &["operon_mcmf", "McmfGraph"]
        );
        assert_eq!(
            file.uses.get("select_lr").unwrap(),
            &["crate", "lr", "select_lr"]
        );
    }

    #[test]
    fn brace_forest_nests() {
        let src = "fn a() { if x { y(); } } mod m { fn b() {} }";
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let forest = brace_forest(&code);
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].children.len(), 1);
        assert_eq!(forest[1].children.len(), 1);
        for root in &forest {
            assert!(code[root.open].is_punct('{'));
            assert!(code[root.close].is_punct('}'));
        }
    }

    #[test]
    fn calls_and_panics_extracted() {
        let src = r#"
use crate::wdm::plan;
fn f(x: Option<u32>) {
    helper(1);
    plan(x);
    operon_mcmf::solve(x);
    McmfGraph::with_nodes(3);
    let v = x.unwrap();
    recv.price(v);
    let w = lookup(v)[0];
    panic!("boom");
    Some(3);
}
"#;
        let (_, file) = parsed(src);
        let body = file.fns[0].body.expect("body");
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let (calls, panics) = body_calls(&code, body.0, body.1, &file.uses);
        let rendered: Vec<String> = calls
            .iter()
            .map(|c| match &c.callee {
                RawCallee::Path(p) => p.join("::"),
                RawCallee::Method(m) => format!(".{m}"),
            })
            .collect();
        assert_eq!(
            rendered,
            vec![
                "helper",
                "crate::wdm::plan",
                "operon_mcmf::solve",
                "McmfGraph::with_nodes",
                ".price",
                "lookup",
            ]
        );
        let whats: Vec<&str> = panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(
            whats,
            vec!["`.unwrap()`", "index into a call result", "`panic!`"]
        );
    }

    #[test]
    fn keywords_and_ctors_are_not_calls() {
        let src =
            "fn f() { if cond(x) { return Some(1); } while check() {} match probe() { _ => {} } }";
        let (_, file) = parsed(src);
        let body = file.fns[0].body.expect("body");
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let (calls, _) = body_calls(&code, body.0, body.1, &file.uses);
        let names: Vec<String> = calls
            .iter()
            .map(|c| match &c.callee {
                RawCallee::Path(p) => p.join("::"),
                RawCallee::Method(m) => m.clone(),
            })
            .collect();
        assert_eq!(names, vec!["cond", "check", "probe"]);
    }
}
