//! The rule engine: token-pattern rules over one file, plus the
//! per-file summaries the workspace-level rules (`callgraph`) consume.
//!
//! | Rule | Invariant it protects |
//! |------|----------------------|
//! | D001 | No `HashMap`/`HashSet` in solver-crate library code — seed-dependent iteration order breaks bit-identical reproducibility. |
//! | D002 | No `Instant::now`/`SystemTime` outside `exec::metrics` and the bench crate — wall-clock reads stay centralized (`operon_exec::Stopwatch`). |
//! | D003 | No `std::thread::spawn`/`scope` outside `operon-exec` — all parallelism goes through the ordered executor. |
//! | R001 | No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in solver-crate library code — hot paths return typed errors. |
//! | R002 | No direct indexing into a call result (`f(x)[i]`) in configured hot paths — prefer `get()` with an error path. |
//! | P001 | No `.clone()` of a solver network/graph (`g`, `*graph`, `net`, `*network`) inside a loop body — copying a solver network per iteration costs its whole arc arena each time, where the work usually touches a few arcs in place. |
//! | P002 | No per-iteration allocation (`Vec::new`/`vec!`/`format!`/`Box::new`/`.collect()`/`.to_vec()`) inside loop bodies of scoped solver hot paths — buffers are hoisted and reused (the flat-arena pattern). |
//! | N001 | No order-sensitive accumulation inside closures passed to `Executor::par_map`/`par_map_coarse`: compound assignment onto captured state, mutating a captured collection, or reading state some parallel closure mutates — merge order is the one thing the ordered executor cannot fix. |
//! | L000 | Suppressions themselves: `// operon-lint: allow(RULE, reason = "…")` requires a rule list and a non-empty reason. |
//!
//! Workspace-level rules R003 (panic-reachability over the call graph)
//! and W001 (stale allows) live in [`crate::callgraph`]; this module
//! contributes the per-file facts they run on.
//!
//! Rules skip `#[cfg(test)]` modules and `#[test]` functions; D001,
//! R001, P001 and P002 additionally apply only to library
//! (non-`src/bin`) code of the configured solver crates. P002 alone
//! also fires in non-solver crates on files named explicitly in its
//! `only_paths` — hot-path kernels hosted by infrastructure crates
//! (say, a geom kernel) opt into the allocation gate that way.

use crate::config::Config;
use crate::diagnostics::{Diagnostic, Level};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::parse::{self, RawCallee};
use crate::symbols::{AllowSite, CallRef, FileAnalysis, FnSummary, PanicSite};
use std::collections::BTreeSet;

/// How a file participates in its crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileRole {
    /// Library code (`src/**` except `src/bin` and `src/main.rs`).
    Lib,
    /// Binary code (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Tests, benches, examples — not scanned.
    Other,
}

/// Classifies `path` (workspace-relative, forward slashes) into its crate
/// name and role. Returns `None` for non-`.rs` files.
pub fn classify(path: &str) -> Option<(String, FileRole)> {
    if !path.ends_with(".rs") {
        return None;
    }
    let (crate_name, rest) = if let Some(rest) = path.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/')?;
        (name.to_owned(), tail)
    } else {
        ("operon-repro".to_owned(), path)
    };
    let role = if rest.starts_with("tests/")
        || rest.starts_with("benches/")
        || rest.starts_with("examples/")
    {
        FileRole::Other
    } else if rest.starts_with("src/bin/") || rest == "src/main.rs" {
        FileRole::Bin
    } else if rest.starts_with("src/") {
        FileRole::Lib
    } else {
        FileRole::Other
    };
    Some((crate_name, role))
}

/// The executor's deterministic-map combinators: closures passed to
/// these run concurrently, so their captures are what N001 polices.
const PAR_COMBINATORS: &[&str] = &[
    "par_map",
    "par_map_coarse",
    "par_map_indexed",
    "par_map_indexed_min",
];

/// Methods that mutate their receiver in a merge-order-sensitive way.
const N001_MUTATORS: &[&str] = &["append", "extend", "insert", "push", "push_str"];

/// Lints one file's source. `path` is the workspace-relative path used
/// for reporting and configuration matching.
///
/// This is the local (single-file) view; workspace rules (R003/W001)
/// additionally need [`analyze_source`]'s summaries from every file.
pub fn lint_source(path: &str, source: &str, config: &Config) -> Vec<Diagnostic> {
    analyze_source(path, source, config).diags
}

/// Analyzes one file: local findings plus the function/call/panic/allow
/// summaries the workspace phases consume.
pub fn analyze_source(path: &str, source: &str, config: &Config) -> FileAnalysis {
    let mut analysis = FileAnalysis {
        path: path.to_owned(),
        ..FileAnalysis::default()
    };
    let Some((crate_name, role)) = classify(path) else {
        return analysis;
    };
    analysis.crate_name = crate_name.clone();
    if role == FileRole::Other || config.excluded(path) {
        return analysis;
    }
    analysis.role = Some(role);

    let tokens = tokenize(source);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let in_test = test_regions(&code);
    let in_loop = loop_regions(&code);
    let pairs = parse::matching_pairs(&code);
    let parsed = parse::parse_file(&code);
    let (mut allows, mut diags) = parse_allows(path, &tokens, &code);
    let solver = config.solver_crates.iter().any(|c| c == &crate_name);
    // P002 also gates files of non-solver crates when they are named
    // explicitly in its `only_paths` — hot-path kernels living in
    // infrastructure crates (e.g. `crates/geom/src/grid.rs`) carry the
    // same no-per-iteration-allocation contract as solver code.
    let p002_opt_in = config.path_explicitly_scoped("P002", path);

    let fire = |rule: &'static str,
                line: u32,
                col: u32,
                message: String,
                allows: &mut [AllowSite],
                diags: &mut Vec<Diagnostic>| {
        let Some(level) = config.level(rule) else {
            return;
        };
        if config.path_allowed(rule, path) || config.path_out_of_scope(rule, path) {
            return;
        }
        if let Some(i) = allow_covering(allows, line, rule) {
            allows[i].used = true;
            return;
        }
        diags.push(Diagnostic {
            rule,
            level,
            file: path.to_owned(),
            line,
            col,
            message,
        });
    };

    for (i, tok) in code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let next = |off: usize| code.get(i + off).copied();
        let followed_by_path_sep = |at: usize| {
            next(at).is_some_and(|t| t.is_punct(':'))
                && next(at + 1).is_some_and(|t| t.is_punct(':'))
        };

        // D001 — hash collections in solver-crate library code.
        if solver
            && role == FileRole::Lib
            && tok.kind == TokenKind::Ident
            && (tok.text == "HashMap" || tok.text == "HashSet")
        {
            let replacement = if tok.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            fire(
                "D001",
                tok.line,
                tok.col,
                format!(
                    "`{}` in solver-crate library code: iteration order is \
                     seed-dependent and breaks bit-identical reproducibility; \
                     use `{}` or iterate over sorted keys",
                    tok.text, replacement
                ),
                &mut allows,
                &mut diags,
            );
        }

        // D002 — ad-hoc wall-clock reads.
        if tok.is_ident("Instant")
            && followed_by_path_sep(1)
            && next(3).is_some_and(|t| t.is_ident("now"))
        {
            fire(
                "D002",
                tok.line,
                tok.col,
                "`Instant::now()` outside `exec::metrics`/bench: route timing \
                 through `operon_exec::Stopwatch` so clock reads stay centralized"
                    .to_owned(),
                &mut allows,
                &mut diags,
            );
        }
        if tok.is_ident("SystemTime") {
            fire(
                "D002",
                tok.line,
                tok.col,
                "`SystemTime` outside `exec::metrics`/bench: wall-clock reads \
                 must go through `operon_exec` instrumentation"
                    .to_owned(),
                &mut allows,
                &mut diags,
            );
        }

        // D003 — raw thread creation.
        if tok.is_ident("thread") && followed_by_path_sep(1) {
            if let Some(t) = next(3) {
                if t.is_ident("spawn") || t.is_ident("scope") {
                    fire(
                        "D003",
                        tok.line,
                        tok.col,
                        format!(
                            "`thread::{}` outside `operon-exec`: all parallelism \
                             must go through the ordered executor (`Executor::par_map`)",
                            t.text
                        ),
                        &mut allows,
                        &mut diags,
                    );
                }
            }
        }

        // R001 — panic family in solver-crate library code.
        if solver && role == FileRole::Lib {
            let method_call =
                i > 0 && code[i - 1].is_punct('.') && next(1).is_some_and(|t| t.is_punct('('));
            if method_call && (tok.text == "unwrap" || tok.text == "expect") {
                fire(
                    "R001",
                    tok.line,
                    tok.col,
                    format!(
                        "`.{}()` in solver-crate library code: return a typed \
                         `operon::error` variant, or annotate the provably-infallible \
                         case with `// operon-lint: allow(R001, reason = ...)`",
                        tok.text
                    ),
                    &mut allows,
                    &mut diags,
                );
            }
            let bang_macro = next(1).is_some_and(|t| t.is_punct('!'));
            if bang_macro
                && matches!(
                    tok.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
            {
                fire(
                    "R001",
                    tok.line,
                    tok.col,
                    format!(
                        "`{}!` in solver-crate library code: return a typed error \
                         instead of panicking, or annotate with \
                         `// operon-lint: allow(R001, reason = ...)`",
                        tok.text
                    ),
                    &mut allows,
                    &mut diags,
                );
            }
        }

        // P001 — cloning a solver network inside a loop body.
        if solver
            && role == FileRole::Lib
            && in_loop[i]
            && tok.is_ident("clone")
            && i >= 2
            && code[i - 1].is_punct('.')
            && code[i - 2].kind == TokenKind::Ident
            && graph_receiver(&code[i - 2].text)
            && next(1).is_some_and(|t| t.is_punct('('))
            && next(2).is_some_and(|t| t.is_punct(')'))
        {
            fire(
                "P001",
                tok.line,
                tok.col,
                format!(
                    "`{}.clone()` inside a loop body: copying a solver network \
                     per iteration costs its whole arc arena each time; work on \
                     the network in place (or on a `clone_from`-synced scratch \
                     replica outside the loop), or annotate with \
                     `// operon-lint: allow(P001, reason = ...)`",
                    code[i - 2].text
                ),
                &mut allows,
                &mut diags,
            );
        }

        // P002 — per-iteration allocation inside loop bodies.
        if (solver || p002_opt_in)
            && role == FileRole::Lib
            && in_loop[i]
            && tok.kind == TokenKind::Ident
        {
            let pattern: Option<String> = if (tok.text == "vec" || tok.text == "format")
                && next(1).is_some_and(|t| t.is_punct('!'))
            {
                Some(format!("{}!", tok.text))
            } else if (tok.text == "Vec" || tok.text == "Box")
                && followed_by_path_sep(1)
                && next(3).is_some_and(|t| t.is_ident("new"))
                && next(4).is_some_and(|t| t.is_punct('('))
            {
                Some(format!("{}::new()", tok.text))
            } else if (tok.text == "collect" || tok.text == "to_vec")
                && i > 0
                && code[i - 1].is_punct('.')
                && next(1).is_some_and(|t| t.is_punct('(') || t.is_punct(':'))
            {
                Some(format!(".{}()", tok.text))
            } else {
                None
            };
            if let Some(pattern) = pattern {
                fire(
                    "P002",
                    tok.line,
                    tok.col,
                    format!(
                        "per-iteration allocation `{pattern}` inside a loop body on \
                         a solver hot path: hoist the buffer out of the loop and \
                         reuse it across iterations (the flat-arena pattern), or \
                         annotate with `// operon-lint: allow(P002, reason = ...)`"
                    ),
                    &mut allows,
                    &mut diags,
                );
            }
        }

        // R002 — indexing straight into a call result in hot paths.
        if role == FileRole::Lib && tok.is_punct(')') {
            if let Some(bracket) = next(1) {
                if bracket.is_punct('[') {
                    fire(
                        "R002",
                        bracket.line,
                        bracket.col,
                        "indexing directly into a call result in a hot path: \
                         prefer `.get()` with an explicit error path over `[...]`"
                            .to_owned(),
                        &mut allows,
                        &mut diags,
                    );
                }
            }
        }
    }

    // N001 — order-sensitive accumulation inside parallel closures.
    for f in &parsed.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        if open < in_test.len() && in_test[open] {
            continue;
        }
        n001_check(
            path,
            &code,
            &pairs,
            open,
            close,
            config,
            &mut allows,
            &mut diags,
        );
    }

    // Function summaries for the workspace phases.
    for f in &parsed.fns {
        let (calls, panics) = match f.body {
            Some((open, close)) => parse::body_calls(&code, open, close, &parsed.uses),
            None => (Vec::new(), Vec::new()),
        };
        let kw_in_test = f
            .body
            .map(|(open, _)| open < in_test.len() && in_test[open])
            .unwrap_or(false);
        analysis.fns.push(FnSummary {
            name: f.name.clone(),
            module_path: f.module_path.clone(),
            impl_type: f.impl_type.clone(),
            is_pub: f.is_pub,
            is_test: kw_in_test,
            line: f.line,
            col: f.col,
            calls: calls
                .into_iter()
                .map(|c| match c.callee {
                    RawCallee::Path(segs) => CallRef {
                        segs,
                        method: false,
                        line: c.line,
                        col: c.col,
                    },
                    RawCallee::Method(name) => CallRef {
                        segs: vec![name],
                        method: true,
                        line: c.line,
                        col: c.col,
                    },
                })
                .collect(),
            panics: panics
                .into_iter()
                .map(|p| PanicSite {
                    what: p.what,
                    line: p.line,
                    col: p.col,
                })
                .collect(),
        });
    }

    crate::diagnostics::sort_canonical(&mut diags);
    analysis.diags = diags;
    analysis.allows = allows;
    analysis
}

/// The index of an allow that covers `(line, rule)`, if any.
pub fn allow_covering(allows: &[AllowSite], line: u32, rule: &str) -> Option<usize> {
    allows
        .iter()
        .position(|a| a.target_line == line && a.rules.iter().any(|r| r == rule))
}

/// One closure argument to a parallel combinator.
struct ParClosure {
    /// Combinator name (`par_map`, …).
    combinator: String,
    /// Half-open token range of the closure body interior.
    body: (usize, usize),
    /// Names bound inside the closure (params, `let`s, `for`s, nested
    /// closure params) — everything else is captured.
    locals: BTreeSet<String>,
}

/// N001 over one function body: find parallel-combinator closures, flag
/// writes to captured state, then flag reads of state any parallel
/// closure in the same function writes.
#[allow(clippy::too_many_arguments)]
fn n001_check(
    path: &str,
    code: &[&Token],
    pairs: &[usize],
    open: usize,
    close: usize,
    config: &Config,
    allows: &mut [AllowSite],
    diags: &mut Vec<Diagnostic>,
) {
    let mut closures: Vec<ParClosure> = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = code[i];
        if t.kind == TokenKind::Ident
            && PAR_COMBINATORS.contains(&t.text.as_str())
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let call_open = i + 1;
            let call_close = pairs[call_open].min(close);
            collect_closures(code, pairs, call_open, call_close, &t.text, &mut closures);
            i = call_open + 1;
            continue;
        }
        i += 1;
    }
    if closures.is_empty() {
        return;
    }

    let mut fire = |line: u32, col: u32, message: String, allows: &mut [AllowSite]| {
        let Some(level) = config.level("N001") else {
            return;
        };
        if config.path_allowed("N001", path) || config.path_out_of_scope("N001", path) {
            return;
        }
        if let Some(i) = allow_covering(allows, line, "N001") {
            allows[i].used = true;
            return;
        }
        diags.push(Diagnostic {
            rule: "N001",
            level,
            file: path.to_owned(),
            line,
            col,
            message,
        });
    };

    // Pass 1: writes to captured state.
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut write_roots: BTreeSet<usize> = BTreeSet::new();
    for c in &closures {
        let (lo, hi) = c.body;
        for j in lo..hi.min(code.len()) {
            let t = code[j];
            // Compound assignment: `root += …`, `root *= …`, ….
            if (t.is_punct('+') || t.is_punct('-') || t.is_punct('*') || t.is_punct('/'))
                && code.get(j + 1).is_some_and(|n| n.is_punct('='))
                && !code.get(j + 2).is_some_and(|n| n.is_punct('='))
            {
                if let Some(root) = receiver_root(code, pairs, j) {
                    if !c.locals.contains(&code[root].text) {
                        tainted.insert(code[root].text.clone());
                        write_roots.insert(root);
                        fire(
                            t.line,
                            t.col,
                            format!(
                                "order-sensitive accumulation `{} {}= …` onto captured \
                                 state inside a closure passed to `Executor::{}`: merge \
                                 order across items is the one thing the ordered executor \
                                 cannot fix; return per-item values and reduce them \
                                 sequentially after the map, or annotate with \
                                 `// operon-lint: allow(N001, reason = ...)`",
                                code[root].text, t.text, c.combinator
                            ),
                            allows,
                        );
                    }
                }
            }
            // Mutating method on captured state: `root.push(…)`, ….
            if t.kind == TokenKind::Ident
                && N001_MUTATORS.contains(&t.text.as_str())
                && j > 0
                && code[j - 1].is_punct('.')
                && code.get(j + 1).is_some_and(|n| n.is_punct('('))
            {
                if let Some(root) = receiver_root(code, pairs, j - 1) {
                    if !c.locals.contains(&code[root].text) {
                        tainted.insert(code[root].text.clone());
                        write_roots.insert(root);
                        fire(
                            t.line,
                            t.col,
                            format!(
                                "`{}.{}(…)` mutates a captured collection inside a \
                                 closure passed to `Executor::{}`: the merge order of \
                                 concurrent pushes is unspecified; collect per-item \
                                 results and combine them sequentially after the map, or \
                                 annotate with `// operon-lint: allow(N001, reason = ...)`",
                                code[root].text, t.text, c.combinator
                            ),
                            allows,
                        );
                    }
                }
            }
        }
    }

    // Pass 2: reads of state some parallel closure writes (loop-carried
    // taint): one finding per (closure, name).
    if tainted.is_empty() {
        return;
    }
    for c in &closures {
        let (lo, hi) = c.body;
        let mut reported: BTreeSet<&str> = BTreeSet::new();
        for (j, t) in code.iter().enumerate().take(hi.min(code.len())).skip(lo) {
            if t.kind == TokenKind::Ident
                && tainted.contains(&t.text)
                && !write_roots.contains(&j)
                && !c.locals.contains(&t.text)
                && !reported.contains(t.text.as_str())
            {
                reported.insert(&t.text);
                fire(
                    t.line,
                    t.col,
                    format!(
                        "read of `{}` inside a closure passed to `Executor::{}`, but \
                         `{}` is mutated by a parallel closure in this function: the \
                         read/write interleaving across items is merge-order dependent; \
                         snapshot the value before the map or restructure the \
                         accumulation, or annotate with \
                         `// operon-lint: allow(N001, reason = ...)`",
                        t.text, c.combinator, t.text
                    ),
                    allows,
                );
            }
        }
    }
}

/// Collects the closure arguments of one combinator call
/// (`(call_open, call_close)` are the call's parens).
fn collect_closures(
    code: &[&Token],
    pairs: &[usize],
    call_open: usize,
    call_close: usize,
    combinator: &str,
    out: &mut Vec<ParClosure>,
) {
    let mut j = call_open + 1;
    while j < call_close {
        let t = code[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            j = pairs[j].max(j) + 1;
            continue;
        }
        let starts_closure = t.is_punct('|')
            && j > 0
            && (code[j - 1].is_punct('(')
                || code[j - 1].is_punct(',')
                || code[j - 1].is_ident("move"));
        if !starts_closure {
            j += 1;
            continue;
        }
        // Parameter list: up to the next `|` (immediately for `||`).
        let params_end = if code.get(j + 1).is_some_and(|n| n.is_punct('|')) {
            j + 1
        } else {
            let mut k = j + 1;
            while k < call_close && !code[k].is_punct('|') {
                k += 1;
            }
            k
        };
        let mut locals = BTreeSet::new();
        collect_param_names(code, j + 1, params_end, &mut locals);
        // Body: a brace block or an expression up to the next top-level
        // `,` / the call's `)`.
        let (lo, hi) = match code.get(params_end + 1) {
            Some(b) if b.is_punct('{') => (params_end + 2, pairs[params_end + 1]),
            _ => {
                let mut k = params_end + 1;
                let mut end = call_close;
                while k < call_close {
                    let u = code[k];
                    if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                        k = pairs[k].max(k) + 1;
                        continue;
                    }
                    if u.is_punct(',') {
                        end = k;
                        break;
                    }
                    k += 1;
                }
                (params_end + 1, end)
            }
        };
        collect_body_bindings(code, lo, hi, &mut locals);
        out.push(ParClosure {
            combinator: combinator.to_owned(),
            body: (lo, hi),
            locals,
        });
        j = hi + 1;
    }
}

/// Adds the identifiers bound by a closure parameter list (skipping type
/// annotations after `:`).
fn collect_param_names(code: &[&Token], lo: usize, hi: usize, out: &mut BTreeSet<String>) {
    let mut in_type = false;
    for t in code.iter().take(hi.min(code.len())).skip(lo) {
        if t.is_punct(':') {
            in_type = true;
        } else if t.is_punct(',') {
            in_type = false;
        } else if !in_type
            && t.kind == TokenKind::Ident
            && !parse::is_keyword(&t.text)
            && t.text != "mut"
            && t.text != "ref"
        {
            out.insert(t.text.clone());
        }
    }
}

/// Adds names bound inside a closure body: `let` patterns, `for`
/// variables, and nested-closure parameters.
fn collect_body_bindings(code: &[&Token], lo: usize, hi: usize, out: &mut BTreeSet<String>) {
    let mut j = lo;
    while j < hi.min(code.len()) {
        let t = code[j];
        if t.is_ident("let") || t.is_ident("for") {
            let stop_in = t.is_ident("for");
            let mut k = j + 1;
            let mut in_type = false;
            while k < hi.min(code.len()) {
                let u = code[k];
                if u.is_punct('=') || u.is_punct(';') || (stop_in && u.is_ident("in")) {
                    break;
                }
                if u.is_punct(':') {
                    in_type = true;
                } else if u.is_punct(',') || u.is_punct('(') || u.is_punct('|') {
                    in_type = false;
                } else if !in_type
                    && u.kind == TokenKind::Ident
                    && !parse::is_keyword(&u.text)
                    && u.text != "mut"
                    && u.text != "ref"
                    && !u
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_uppercase())
                {
                    out.insert(u.text.clone());
                }
                k += 1;
            }
            j = k;
            continue;
        }
        // Nested closure parameters.
        let nested_closure = t.is_punct('|')
            && j > 0
            && (code[j - 1].is_punct('(')
                || code[j - 1].is_punct(',')
                || code[j - 1].is_punct('{')
                || code[j - 1].is_punct(';')
                || code[j - 1].is_punct('=')
                || code[j - 1].is_ident("move"));
        if nested_closure {
            let params_end = if code.get(j + 1).is_some_and(|n| n.is_punct('|')) {
                j + 1
            } else {
                let mut k = j + 1;
                while k < hi.min(code.len()) && !code[k].is_punct('|') {
                    k += 1;
                }
                k
            };
            collect_param_names(code, j + 1, params_end, out);
            j = params_end + 1;
            continue;
        }
        j += 1;
    }
}

/// Walks back from token index `at` (exclusive) over a `recv.field[i]`
/// chain to its root identifier. Returns the root's token index.
fn receiver_root(code: &[&Token], pairs: &[usize], at: usize) -> Option<usize> {
    let mut j = at.checked_sub(1)?;
    loop {
        let t = code[j];
        if t.is_punct(']') {
            // Jump to the matching `[`.
            let open = (0..j)
                .rev()
                .find(|&k| pairs[k] == j && code[k].is_punct('['))?;
            j = open.checked_sub(1)?;
            continue;
        }
        if t.kind == TokenKind::Ident && !parse::is_keyword(&t.text) || t.is_ident("self") {
            if j >= 2 && code[j - 1].is_punct('.') {
                j -= 2;
                continue;
            }
            return Some(j);
        }
        return None;
    }
}

/// Whether an identifier names a solver residual network or graph — the
/// receivers P001 polices. Matches the workspace's naming convention
/// (`g`, `*graph`, `net`, `*network` and suffixed forms like
/// `committed_net` or `trial_graph`) rather than attempting type
/// resolution; a bare `net`-suffixed word like `planet` stays exempt
/// because only the `_`-separated suffix counts.
fn graph_receiver(name: &str) -> bool {
    matches!(name, "g" | "graph" | "net" | "network")
        || name.ends_with("_g")
        || name.ends_with("_net")
        || name.ends_with("graph")
        || name.ends_with("network")
}

/// Marks code-token indices inside `for`/`while`/`loop` bodies (nested
/// closures included: work inside a closure that is called per item of a
/// loop is still per-iteration work).
///
/// A loop body is the first `{` at paren/bracket depth 0 after the
/// keyword; for `for` the header must also contain a depth-0 `in`, which
/// keeps `impl Trait for Type { … }` and `for<'a>` bounds from being
/// mistaken for loops.
fn loop_regions(code: &[&Token]) -> Vec<bool> {
    let mut in_loop = vec![false; code.len()];
    let close = matching_braces(code);
    for (i, t) in code.iter().enumerate() {
        let is_for = t.is_ident("for");
        if !(is_for || t.is_ident("while") || t.is_ident("loop")) {
            continue;
        }
        let mut depth = 0usize;
        let mut saw_in = false;
        let mut j = i + 1;
        while j < code.len() {
            let tok = code[j];
            if tok.is_punct('(') || tok.is_punct('[') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 {
                if tok.is_ident("in") {
                    saw_in = true;
                } else if tok.is_punct('{') {
                    if !is_for || saw_in {
                        for slot in in_loop.iter_mut().take(close[j] + 1).skip(j) {
                            *slot = true;
                        }
                    }
                    break;
                } else if tok.is_punct(';') || tok.is_punct('}') {
                    break; // not a loop header after all
                }
            }
            j += 1;
        }
    }
    in_loop
}

/// Marks code-token indices inside `#[cfg(test)]` / `#[test]` /
/// `#[should_panic]`-gated items (the `{ … }` that follows the attribute).
fn test_regions(code: &[&Token]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let close = matching_braces(code);

    let mut i = 0usize;
    while i < code.len() {
        if code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect the attribute's tokens up to the matching `]`.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut idents: Vec<&str> = Vec::new();
            while j < code.len() {
                let t = code[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.kind == TokenKind::Ident {
                    idents.push(&t.text);
                }
                j += 1;
            }
            let is_test_attr = match idents.first().copied() {
                Some("test") | Some("should_panic") => true,
                Some("cfg") => idents.contains(&"test"),
                _ => false,
            };
            if is_test_attr {
                // The gated item's body: first `{` before any `;` at the
                // item level (a gated `use …;` or `fn …;` has no body).
                let mut k = j + 1;
                while k < code.len() {
                    let t = code[k];
                    if t.is_punct('{') {
                        let end = close[k];
                        for slot in in_test.iter_mut().take(end + 1).skip(i) {
                            *slot = true;
                        }
                        break;
                    }
                    if t.is_punct(';') {
                        for slot in in_test.iter_mut().take(k + 1).skip(i) {
                            *slot = true;
                        }
                        break;
                    }
                    k += 1;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// For each `{` code-token index, the index of its matching `}` (or the
/// last token when unbalanced).
fn matching_braces(code: &[&Token]) -> Vec<usize> {
    let mut close = vec![code.len().saturating_sub(1); code.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.is_punct('{') {
            stack.push(i);
        } else if t.is_punct('}') {
            if let Some(open) = stack.pop() {
                close[open] = i;
            }
        }
    }
    close
}

/// Parses every `// operon-lint: allow(...)` comment. Returns the
/// suppression sites plus L000 diagnostics for malformed ones.
fn parse_allows(
    path: &str,
    tokens: &[Token],
    code: &[&Token],
) -> (Vec<AllowSite>, Vec<Diagnostic>) {
    let mut allows: Vec<AllowSite> = Vec::new();
    let mut diags = Vec::new();

    for tok in tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("operon-lint:") else {
            continue;
        };
        let bad = |message: &str, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                rule: "L000",
                level: Level::Deny,
                file: path.to_owned(),
                line: tok.line,
                col: tok.col,
                message: message.to_owned(),
            });
        };
        let rest = rest.trim();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|a| a.strip_suffix(')'))
        else {
            bad(
                "malformed suppression: expected `operon-lint: allow(RULE, reason = \"...\")`",
                &mut diags,
            );
            continue;
        };
        let Some(rules) = parse_allow_args(args) else {
            bad(
                "suppression without a reason: every `allow` must carry \
                 `reason = \"...\"` explaining why the invariant holds",
                &mut diags,
            );
            continue;
        };
        // Trailing comment suppresses its own line; a standalone comment
        // suppresses the next line that has code on it.
        let own_line = code.iter().any(|t| t.line == tok.line && t.col < tok.col);
        let target_line = if own_line {
            tok.line
        } else {
            match code.iter().find(|t| t.line > tok.line) {
                Some(t) => t.line,
                None => continue, // allow at EOF: nothing to suppress
            }
        };
        allows.push(AllowSite {
            line: tok.line,
            col: tok.col,
            target_line,
            rules,
            used: false,
        });
    }
    (allows, diags)
}

/// Parses `R001, D001, reason = "why"` into the listed rule ids.
/// Returns `None` when no rule is listed or the reason is missing/empty.
fn parse_allow_args(args: &str) -> Option<Vec<String>> {
    let mut rules = Vec::new();
    let mut reason: Option<String> = None;
    // Split on commas outside quotes.
    let mut parts: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in args.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    parts.push(current);

    for part in parts {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(value) = part.strip_prefix("reason") {
            let value = value.trim().strip_prefix('=')?.trim();
            let inner = value.strip_prefix('"')?.strip_suffix('"')?;
            if inner.trim().is_empty() {
                return None;
            }
            reason = Some(inner.to_owned());
        } else if part.chars().all(|c| c.is_ascii_alphanumeric()) {
            rules.push(part.to_owned());
        } else {
            return None;
        }
    }
    if rules.is_empty() || reason.is_none() {
        return None;
    }
    Some(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_as(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(path, src, &Config::default())
    }

    #[test]
    fn classify_roles() {
        assert_eq!(
            classify("crates/core/src/flow.rs"),
            Some(("core".to_owned(), FileRole::Lib))
        );
        assert_eq!(
            classify("crates/core/src/bin/operon_route.rs"),
            Some(("core".to_owned(), FileRole::Bin))
        );
        assert_eq!(
            classify("crates/lint/tests/golden.rs"),
            Some(("lint".to_owned(), FileRole::Other))
        );
        assert_eq!(
            classify("src/lib.rs"),
            Some(("operon-repro".to_owned(), FileRole::Lib))
        );
        assert_eq!(classify("README.md"), None);
    }

    #[test]
    fn d001_fires_in_solver_lib_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_as("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(lint_as("crates/exec/src/x.rs", src).len(), 0);
        assert_eq!(lint_as("crates/core/src/bin/x.rs", src).len(), 0);
    }

    #[test]
    fn d001_skips_strings_comments_and_tests() {
        let src = r#"
// HashMap in a comment
const S: &str = "HashMap";
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn f() { let _m: HashMap<u32, u32> = HashMap::new(); }
}
"#;
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d002_matches_instant_now_and_systemtime() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let d = lint_as("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "D002");
        // `Instant` alone (e.g. storing a start passed in) is fine.
        assert!(lint_as("crates/core/src/x.rs", "fn f(t: Instant) {}\n").is_empty());
        assert_eq!(
            lint_as(
                "crates/core/src/x.rs",
                "fn f() { let _ = SystemTime::UNIX_EPOCH; }\n"
            )
            .len(),
            1
        );
    }

    #[test]
    fn d003_matches_spawn_and_scope() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let d = lint_as("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "D003");
        let d = lint_as(
            "crates/geom/src/x.rs",
            "fn f() { thread::scope(|s| {}); }\n",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn r001_matches_panic_family() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("msg");
    if a > b { panic!("boom"); }
    unreachable!()
}
"#;
        let d = lint_as("crates/steiner/src/x.rs", src);
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["R001"; 4]);
        // Non-solver crates keep their panics (e.g. netlist synth config).
        assert!(lint_as("crates/netlist/src/x.rs", src).is_empty());
    }

    #[test]
    fn r001_ignores_expect_err_and_standalone_idents() {
        let src = "fn f(r: Result<u32, u32>) { let _ = r.expect_err(\"e\"); }\n";
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
        // A function *named* unwrap, not a method call.
        assert!(lint_as("crates/core/src/x.rs", "fn unwrap() {}\n").is_empty());
    }

    #[test]
    fn p001_flags_network_clones_in_loop_bodies() {
        let src = "fn f(g: &McmfGraph) { for wi in 0..3 { let t = g.clone(); } }\n";
        let d = lint_as("crates/mcmf/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "P001");
        // Suffixed receivers and `while` loops count too.
        let src = "fn f() { while go() { let t = committed_graph.clone(); } }\n";
        assert_eq!(lint_as("crates/core/src/x.rs", src).len(), 1);
        // A clone inside a closure that a loop invokes per item is still
        // per-iteration work.
        let src = "fn f() { loop { run(|| net.clone()); } }\n";
        assert_eq!(lint_as("crates/core/src/x.rs", src).len(), 1);
    }

    #[test]
    fn p001_ignores_non_loops_and_non_network_receivers() {
        // Outside a loop body.
        assert!(lint_as(
            "crates/mcmf/src/x.rs",
            "fn f(g: &G) { let t = g.clone(); }\n"
        )
        .is_empty());
        // Receiver is not network-named.
        assert!(lint_as(
            "crates/core/src/x.rs",
            "fn f() { for i in 0..3 { let t = items.clone(); } }\n"
        )
        .is_empty());
        // `impl … for …` and `planet` must not pattern-match.
        assert!(lint_as(
            "crates/mcmf/src/x.rs",
            "impl Clone for Foo { fn clone(&self) -> Foo { Foo { g: self.g.clone() } } }\n"
        )
        .is_empty());
        assert!(lint_as(
            "crates/core/src/x.rs",
            "fn f() { for i in 0..3 { let t = planet.clone(); } }\n"
        )
        .is_empty());
        // `clone_from` is the sanctioned replica-refresh idiom.
        assert!(lint_as(
            "crates/core/src/x.rs",
            "fn f() { for i in 0..3 { scratch.g.clone_from(&committed.g); } }\n"
        )
        .is_empty());
        // Solver crates only.
        assert!(lint_as(
            "crates/exec/src/x.rs",
            "fn f() { for i in 0..3 { let t = g.clone(); } }\n"
        )
        .is_empty());
    }

    #[test]
    fn p001_respects_reasoned_allows() {
        let src = "fn f() {\n    for i in 0..3 {\n        // operon-lint: allow(P001, reason = \"cold oracle intentionally copies\")\n        let t = g.clone();\n    }\n}\n";
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn p002_flags_per_iteration_allocation() {
        let src = r#"
fn f(n: usize) {
    for i in 0..n {
        let mut row: Vec<u32> = Vec::new();
        let b = Box::new(i);
        let v = vec![0u8; 4];
        let s = format!("{i}");
        let c: Vec<u32> = (0..4).collect();
        let t = c.to_vec();
    }
}
"#;
        let d = lint_as("crates/core/src/x.rs", src);
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["P002"; 6]);
        // Outside a loop: fine.
        assert!(lint_as("crates/core/src/x.rs", "fn f() { let v = Vec::new(); }\n").is_empty());
        // Non-solver crates: fine.
        assert!(lint_as("crates/exec/src/x.rs", src).is_empty());
        // Turbofish collect still fires.
        let src = "fn f() { for i in 0..3 { let v = it.collect::<Vec<_>>(); } }\n";
        assert_eq!(lint_as("crates/core/src/x.rs", src).len(), 1);
    }

    #[test]
    fn p002_respects_allows_and_tests() {
        let src = "fn f() {\n    for i in 0..3 {\n        // operon-lint: allow(P002, reason = \"cold path, runs once per design\")\n        let v: Vec<u32> = Vec::new();\n    }\n}\n";
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { for i in 0..3 { let v: Vec<u32> = Vec::new(); } }\n}\n";
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn n001_flags_captured_accumulation() {
        let src = r#"
fn f(exec: &Executor, items: &[f64]) -> f64 {
    let mut total = 0.0;
    exec.par_map(items, |x| {
        total += x;
    });
    total
}
"#;
        let d = lint_as("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "N001");
        assert!(d[0].message.contains("total"));
    }

    #[test]
    fn n001_flags_captured_pushes_and_tainted_reads() {
        let src = r#"
fn f(exec: &Executor, items: &[u32]) {
    let mut out = Vec::new();
    exec.par_map_coarse(items, |x| {
        out.push(*x);
    });
    exec.par_map(items, |x| {
        let y = out.len() + *x as usize;
        y
    });
}
"#;
        let d = lint_as("crates/core/src/x.rs", src);
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["N001"; 2], "{d:?}");
        assert!(d[0].message.contains("out.push"));
        assert!(d[1].message.contains("read of `out`"));
    }

    #[test]
    fn n001_ignores_local_state_and_sequential_loops() {
        // Accumulation onto closure-local state is fine.
        let src = r#"
fn f(exec: &Executor, items: &[Vec<f64>]) -> Vec<f64> {
    exec.par_map(items, |xs| {
        let mut acc = 0.0;
        for x in xs {
            acc += x;
        }
        acc
    })
}
"#;
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
        // Sequential accumulation outside any parallel closure is fine.
        let src = "fn f(items: &[f64]) -> f64 { let mut t = 0.0; for x in items { t += x; } t }\n";
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
        // Reading a captured immutable is fine.
        let src = "fn f(exec: &Executor, items: &[f64], scale: f64) -> Vec<f64> { exec.par_map(items, |x| x * scale) }\n";
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn n001_expression_closures_and_params_are_local() {
        // Param named like outer state shadows it.
        let src = r#"
fn f(exec: &Executor, items: &[f64]) {
    let mut acc = 0.0;
    exec.par_map(items, |acc| acc + 1.0);
    acc += 1.0;
}
"#;
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
        // Expression-body closure with captured compound assignment.
        let src = "fn f(exec: &Executor, items: &[f64]) { let mut t = 0.0; exec.par_map(items, |x| t += x); }\n";
        let d = lint_as("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "N001");
    }

    #[test]
    fn n001_respects_reasoned_allows() {
        let src = "fn f(exec: &Executor, items: &[u32]) {\n    let mut slots = Slots::new();\n    exec.par_map_coarse(items, |x| {\n        // operon-lint: allow(N001, reason = \"each worker writes a disjoint slot\")\n        slots.push(*x);\n    });\n}\n";
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn r002_fires_only_in_scoped_paths() {
        let mut config = Config::default();
        config
            .rules
            .get_mut("R002")
            .expect("R002 configured")
            .only_paths = vec!["crates/core/src/hot.rs".to_owned()];
        let src = "fn f() { let x = items()[0]; }\n";
        assert_eq!(lint_source("crates/core/src/hot.rs", src, &config).len(), 1);
        assert!(lint_source("crates/core/src/cold.rs", src, &config).is_empty());
    }

    #[test]
    fn p002_fires_in_explicitly_scoped_non_solver_paths() {
        let mut config = Config::default();
        config
            .rules
            .get_mut("P002")
            .expect("P002 configured")
            .only_paths = vec![
            "crates/core/src/lr.rs".to_owned(),
            "crates/geom/src/grid.rs".to_owned(),
        ];
        let src = "fn f(n: u32) {\n    for _ in 0..n {\n        let v: Vec<u32> = Vec::new();\n        drop(v);\n    }\n}\n";
        // Named explicitly in only_paths: the allocation gate applies
        // even though geom is not a solver crate.
        let d = lint_source("crates/geom/src/grid.rs", src, &config);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "P002");
        // Geom files the scope does not name stay exempt.
        assert!(lint_source("crates/geom/src/poly.rs", src, &config).is_empty());
    }

    #[test]
    fn inline_allow_suppresses_with_reason() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // operon-lint: allow(R001, reason = \"checked by caller\")\n    x.unwrap()\n}\n";
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
        let trailing = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // operon-lint: allow(R001, reason = \"checked\")\n}\n";
        assert!(lint_as("crates/core/src/x.rs", trailing).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_deny_finding() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    // operon-lint: allow(R001)\n    x.unwrap()\n}\n";
        let d = lint_as("crates/core/src/x.rs", src);
        let rules: Vec<_> = d.iter().map(|d| d.rule).collect();
        // The malformed allow suppresses nothing, so R001 still fires.
        assert!(rules.contains(&"L000"));
        assert!(rules.contains(&"R001"));
    }

    #[test]
    fn allow_only_covers_listed_rules() {
        let src = "fn f() {\n    // operon-lint: allow(D002, reason = \"not the right rule\")\n    let m = std::collections::HashMap::<u32, u32>::new();\n}\n";
        let d = lint_as("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "D001");
    }

    #[test]
    fn test_fn_attribute_skips_body() {
        let src = "#[test]\nfn t() { let x: Option<u32> = None; x.unwrap(); }\nfn lib(x: Option<u32>) { x.unwrap(); }\n";
        let d = lint_as("crates/core/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn analysis_summarizes_fns_and_allow_usage() {
        let src = r#"
// operon-lint: allow(R001, reason = "bounded by caller")
pub fn api(x: Option<u32>) -> u32 { helper(x).unwrap() }
fn helper(x: Option<u32>) -> Option<u32> { x }
"#;
        let a = analyze_source("crates/core/src/x.rs", src, &Config::default());
        assert!(a.diags.is_empty());
        assert_eq!(a.fns.len(), 2);
        assert!(a.fns[0].is_pub);
        assert!(!a.fns[1].is_pub);
        assert_eq!(a.fns[0].calls.len(), 1);
        assert_eq!(a.fns[0].calls[0].segs, vec!["helper"]);
        assert_eq!(a.fns[0].panics.len(), 1);
        assert_eq!(a.fns[0].panics[0].what, "`.unwrap()`");
        assert_eq!(a.allows.len(), 1);
        assert!(a.allows[0].used, "allow suppressed the R001 finding");
    }
}
