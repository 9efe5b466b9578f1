//! `Lint.toml` parsing and path-glob matching.
//!
//! The parser covers exactly the TOML subset the checked-in `Lint.toml`
//! uses — top-level `key = value`, `[rules.<ID>]` tables, strings, and
//! string arrays — hand-rolled to keep the linter dependency-free.

use crate::diagnostics::Level;
use std::collections::BTreeMap;

/// Per-rule configuration.
#[derive(Clone, Debug)]
pub struct RuleConfig {
    /// `deny`, `warn`, or disabled (`off`) entirely.
    pub level: Option<Level>,
    /// Globs (workspace-relative) where the rule never fires.
    pub allow_paths: Vec<String>,
    /// Globs that *scope* the rule: when non-empty, the rule only fires
    /// inside matching files (used by R002's hot-path list).
    pub only_paths: Vec<String>,
}

impl RuleConfig {
    fn new(level: Level) -> Self {
        Self {
            level: Some(level),
            allow_paths: Vec::new(),
            only_paths: Vec::new(),
        }
    }
}

/// The full lint configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crate names whose library code the solver-scoped rules
    /// (D001, R001) apply to.
    pub solver_crates: Vec<String>,
    /// Globs never scanned at all.
    pub exclude: Vec<String>,
    /// Per-rule settings, keyed by rule id.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Default for Config {
    /// The built-in defaults, matching the checked-in `Lint.toml`.
    fn default() -> Self {
        let mut rules = BTreeMap::new();
        rules.insert("D001".to_owned(), RuleConfig::new(Level::Deny));
        rules.insert("D002".to_owned(), RuleConfig::new(Level::Deny));
        rules.insert("D003".to_owned(), RuleConfig::new(Level::Deny));
        rules.insert("R001".to_owned(), RuleConfig::new(Level::Deny));
        rules.insert("P001".to_owned(), RuleConfig::new(Level::Deny));
        rules.insert("P002".to_owned(), RuleConfig::new(Level::Deny));
        rules.insert("R003".to_owned(), RuleConfig::new(Level::Deny));
        rules.insert("N001".to_owned(), RuleConfig::new(Level::Deny));
        rules.insert("W001".to_owned(), RuleConfig::new(Level::Warn));
        let mut r002 = RuleConfig::new(Level::Warn);
        r002.only_paths = Vec::new();
        rules.insert("R002".to_owned(), r002);
        Self {
            solver_crates: ["core", "steiner", "ilp", "mcmf", "optics"]
                .map(str::to_owned)
                .to_vec(),
            exclude: vec!["target/**".to_owned(), "shims/**".to_owned()],
            rules,
        }
    }
}

impl Config {
    /// The configured level of `rule`, or `None` when disabled.
    pub fn level(&self, rule: &str) -> Option<Level> {
        self.rules.get(rule).and_then(|r| r.level)
    }

    /// Whether `rule` is suppressed for `path` by its `allow_paths`.
    pub fn path_allowed(&self, rule: &str, path: &str) -> bool {
        self.rules
            .get(rule)
            .is_some_and(|r| r.allow_paths.iter().any(|g| glob_match(g, path)))
    }

    /// Whether `rule` is scoped to a path list that excludes `path`.
    pub fn path_out_of_scope(&self, rule: &str, path: &str) -> bool {
        self.rules.get(rule).is_some_and(|r| {
            !r.only_paths.is_empty() && !r.only_paths.iter().any(|g| glob_match(g, path))
        })
    }

    /// Whether `rule` names `path` explicitly in its `only_paths`.
    ///
    /// Solver-scoped rules use this to opt individual files of
    /// non-solver crates into the gate — e.g. P002 on a geom kernel
    /// that is hot-path code in an infrastructure crate.
    pub fn path_explicitly_scoped(&self, rule: &str, path: &str) -> bool {
        self.rules
            .get(rule)
            .is_some_and(|r| r.only_paths.iter().any(|g| glob_match(g, path)))
    }

    /// Whether `path` is excluded from scanning entirely.
    pub fn excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|g| glob_match(g, path))
    }

    /// Parses a `Lint.toml` document. Unknown keys are rejected so typos
    /// cannot silently disable a gate.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        // Start rules from scratch: the file is the source of truth.
        config.rules.clear();
        let mut section: Option<String> = None;

        // Join multi-line arrays: a `key = [` opener accumulates lines
        // until the closing `]`.
        let mut lines: Vec<(usize, String)> = Vec::new();
        let mut pending: Option<(usize, String)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let piece = strip_comment(raw).trim().to_owned();
            if piece.is_empty() {
                continue;
            }
            match pending.take() {
                Some((start, mut acc)) => {
                    acc.push(' ');
                    acc.push_str(&piece);
                    if piece.ends_with(']') {
                        lines.push((start, acc));
                    } else {
                        pending = Some((start, acc));
                    }
                }
                None => {
                    if piece.contains('[') && piece.contains('=') && !piece.ends_with(']') {
                        pending = Some((idx + 1, piece));
                    } else {
                        lines.push((idx + 1, piece));
                    }
                }
            }
        }
        if let Some((start, _)) = pending {
            return Err(format!("Lint.toml:{start}: unterminated array"));
        }

        for (lineno, line) in lines {
            let line = line.as_str();
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("Lint.toml:{lineno}: unterminated table header"))?
                    .trim();
                let rule = name
                    .strip_prefix("rules.")
                    .ok_or_else(|| format!("Lint.toml:{lineno}: unknown table `{name}`"))?;
                config
                    .rules
                    .entry(rule.to_owned())
                    .or_insert_with(|| RuleConfig::new(Level::Deny));
                section = Some(rule.to_owned());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("Lint.toml:{lineno}: expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            match &section {
                None => match key {
                    "solver_crates" => config.solver_crates = parse_string_array(value, lineno)?,
                    "exclude" => config.exclude = parse_string_array(value, lineno)?,
                    other => {
                        return Err(format!("Lint.toml:{lineno}: unknown key `{other}`"));
                    }
                },
                Some(rule) => {
                    let rc = config.rules.get_mut(rule).ok_or("rule table must exist")?;
                    match key {
                        "level" => {
                            rc.level = match parse_string(value, lineno)?.as_str() {
                                "deny" => Some(Level::Deny),
                                "warn" => Some(Level::Warn),
                                "off" => None,
                                other => {
                                    return Err(format!(
                                        "Lint.toml:{lineno}: level must be deny/warn/off, got `{other}`"
                                    ));
                                }
                            }
                        }
                        "allow_paths" => rc.allow_paths = parse_string_array(value, lineno)?,
                        "only_paths" => rc.only_paths = parse_string_array(value, lineno)?,
                        other => {
                            return Err(format!("Lint.toml:{lineno}: unknown rule key `{other}`"));
                        }
                    }
                }
            }
        }
        Ok(config)
    }
}

/// Strips a trailing `# comment`, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("Lint.toml:{lineno}: expected a quoted string, got `{value}`"))?;
    Ok(inner.to_owned())
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("Lint.toml:{lineno}: expected an array, got `{value}`"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // tolerate trailing commas
        }
        out.push(parse_string(item, lineno)?);
    }
    Ok(out)
}

/// Minimal glob matcher: `*` matches within a path segment, `**` matches
/// across segments, everything else is literal.
pub fn glob_match(glob: &str, path: &str) -> bool {
    fn inner(g: &[u8], p: &[u8]) -> bool {
        if g.is_empty() {
            return p.is_empty();
        }
        match g[0] {
            b'*' => {
                if g.len() >= 2 && g[1] == b'*' {
                    // `**`: swallow an optional following `/`, match any
                    // (possibly empty) path remainder.
                    let rest = if g.len() >= 3 && g[2] == b'/' {
                        &g[3..]
                    } else {
                        &g[2..]
                    };
                    (0..=p.len()).any(|i| inner(rest, &p[i..]))
                } else {
                    // `*`: any run of non-separator characters.
                    (0..=p.len())
                        .take_while(|&i| i == 0 || p[i - 1] != b'/')
                        .any(|i| inner(&g[1..], &p[i..]))
                }
            }
            c => !p.is_empty() && p[0] == c && inner(&g[1..], &p[1..]),
        }
    }
    inner(glob.as_bytes(), path.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_star_stays_in_segment() {
        assert!(glob_match("crates/*/src", "crates/core/src"));
        assert!(!glob_match("crates/*/src", "crates/core/sub/src"));
        assert!(glob_match("*.rs", "lib.rs"));
        assert!(!glob_match("*.rs", "src/lib.rs"));
    }

    #[test]
    fn glob_double_star_crosses_segments() {
        assert!(glob_match(
            "crates/bench/**",
            "crates/bench/src/bin/fig8.rs"
        ));
        assert!(glob_match(
            "**/fixtures/**",
            "crates/lint/tests/fixtures/d001.rs"
        ));
        assert!(glob_match("target/**", "target/release/deps/x.d"));
        assert!(!glob_match("target/**", "crates/target-ish/x.rs"));
    }

    #[test]
    fn glob_exact_file() {
        assert!(glob_match(
            "crates/exec/src/metrics.rs",
            "crates/exec/src/metrics.rs"
        ));
        assert!(!glob_match(
            "crates/exec/src/metrics.rs",
            "crates/exec/src/executor.rs"
        ));
    }

    #[test]
    fn parses_the_full_shape() {
        let text = r#"
# workspace config
solver_crates = ["core", "steiner"]
exclude = ["target/**", "shims/**"]

[rules.D001]
level = "deny"

[rules.D002]
level = "deny"
allow_paths = ["crates/exec/src/metrics.rs", "crates/bench/**"]

[rules.R002]
level = "warn"
only_paths = ["crates/core/src/lr.rs"]

[rules.X999]
level = "off"
"#;
        let c = Config::parse(text).expect("parses");
        assert_eq!(c.solver_crates, vec!["core", "steiner"]);
        assert_eq!(c.level("D001"), Some(Level::Deny));
        assert_eq!(c.level("R002"), Some(Level::Warn));
        assert_eq!(c.level("X999"), None);
        assert!(c.path_allowed("D002", "crates/bench/src/bin/fig8.rs"));
        assert!(!c.path_allowed("D002", "crates/core/src/flow.rs"));
        assert!(c.path_out_of_scope("R002", "crates/core/src/flow.rs"));
        assert!(!c.path_out_of_scope("R002", "crates/core/src/lr.rs"));
        assert!(!c.path_out_of_scope("D001", "anything.rs"));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(Config::parse("solvercrates = []").is_err());
        assert!(Config::parse("[rules.D001]\nlvl = \"deny\"").is_err());
        assert!(Config::parse("[other.table]").is_err());
        assert!(Config::parse("[rules.D001]\nlevel = \"strict\"").is_err());
    }

    #[test]
    fn multi_line_arrays_are_joined() {
        let c = Config::parse(
            "[rules.R002]\nlevel = \"warn\"\nonly_paths = [\n    \"a.rs\", # hot\n    \"b.rs\",\n]",
        )
        .expect("parses");
        assert_eq!(
            c.rules.get("R002").expect("present").only_paths,
            vec!["a.rs", "b.rs"]
        );
        assert!(Config::parse("exclude = [\n  \"a.rs\",").is_err());
    }

    #[test]
    fn comments_and_trailing_commas_tolerated() {
        let c = Config::parse(
            "exclude = [\"a/**\", \"b#not-comment/**\",] # trailing\n[rules.D001] # tbl\nlevel = \"warn\"",
        )
        .expect("parses");
        assert_eq!(c.exclude, vec!["a/**", "b#not-comment/**"]);
        assert_eq!(c.level("D001"), Some(Level::Warn));
    }
}
