//! The declared invariant manifest (`tools/tidy/tidy.policy`).
//!
//! The policy file is the single place where the workspace's enforced
//! invariants are *declared*: which functions are allocation-free hot
//! paths, which file may contain `unsafe`, which modules promise
//! bit-deterministic output, where wall-clock reads are allowed, and the
//! global lock acquisition order. The linter is generic; the policy is
//! the contract.
//!
//! Format: `#` comments, `[section]` headers, then one entry per line.
//!
//! ```text
//! [hot_alloc]
//! crates/model/src/infer.rs: prefill_core, *_into
//!
//! [unsafe_files]
//! crates/serve/src/pool.rs
//!
//! [determinism]
//! crates/scenario/src/replay.rs
//!
//! [clock]
//! crates/serve/src/clock.rs
//!
//! [locks]
//! inner: 10 kv-block-pool
//! ```
//!
//! `hot_alloc` values are comma-separated function-name patterns; a
//! pattern may use one leading or trailing `*` wildcard (`*_into`,
//! `quant_*`). `locks` maps a lock-guard receiver identifier to its rank
//! in the global acquisition order (lower rank must be taken first) and a
//! human-readable class name.
//!
//! Every entry must still guard something: a path that matches no linted
//! file, or an exact `hot_alloc` name (no `*`) that matches no `fn` in its
//! file, is itself a violation (see [`crate::lints::lint_stale_policy`]).

/// One hot-path declaration: a file and its allocation-free functions.
#[derive(Debug)]
pub struct HotFile {
    /// Workspace-relative path (matched by suffix).
    pub path: String,
    /// Function-name patterns (exact, `prefix*`, or `*suffix`).
    pub functions: Vec<String>,
    /// 1-based line of the entry in the policy file.
    pub line: usize,
}

/// One declared lock class.
#[derive(Debug)]
pub struct LockClass {
    /// The receiver identifier a `.lock()` call is recognized by
    /// (`self.inner.lock()` → `inner`).
    pub receiver: String,
    /// Position in the global acquisition order; a lock may only be taken
    /// while holding strictly lower-ranked guards.
    pub rank: u32,
    /// Human-readable name used in diagnostics.
    pub name: String,
}

/// The parsed manifest.
#[derive(Debug, Default)]
pub struct Policy {
    /// Files with declared allocation-free hot functions.
    pub hot: Vec<HotFile>,
    /// Files allowed to contain `unsafe` (each use still needs a
    /// `// SAFETY:` comment).
    pub unsafe_files: Vec<String>,
    /// Modules promising bit-deterministic output: no `HashMap`/`HashSet`,
    /// no wall-clock reads.
    pub determinism: Vec<String>,
    /// The only files allowed to read the wall clock
    /// (`Instant::now` / `SystemTime`).
    pub clock_files: Vec<String>,
    /// The global lock acquisition order.
    pub locks: Vec<LockClass>,
    /// Every path the manifest names (all sections but `[locks]`) with its
    /// 1-based policy line, for the stale-entry check.
    pub paths: Vec<(String, usize)>,
}

impl Policy {
    /// Parses the manifest text. Unknown sections and malformed entries
    /// are hard errors — a policy typo must not silently disable a lint.
    pub fn parse(text: &str) -> Result<Policy, String> {
        let mut policy = Policy::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "hot_alloc" | "unsafe_files" | "determinism" | "clock" | "locks" => {}
                    other => {
                        return Err(format!("policy line {lineno}: unknown section [{other}]"))
                    }
                }
                continue;
            }
            match section.as_str() {
                "hot_alloc" => {
                    let (path, fns) = line
                        .split_once(':')
                        .ok_or_else(|| format!("policy line {lineno}: expected `path: fns`"))?;
                    let functions: Vec<String> = fns
                        .split(',')
                        .map(|f| f.trim().to_string())
                        .filter(|f| !f.is_empty())
                        .collect();
                    if functions.is_empty() {
                        return Err(format!("policy line {lineno}: no functions declared"));
                    }
                    let path = path.trim().to_string();
                    policy.paths.push((path.clone(), lineno));
                    policy.hot.push(HotFile { path, functions, line: lineno });
                }
                "unsafe_files" | "determinism" | "clock" => {
                    policy.paths.push((line.to_string(), lineno));
                    let list = match section.as_str() {
                        "unsafe_files" => &mut policy.unsafe_files,
                        "determinism" => &mut policy.determinism,
                        _ => &mut policy.clock_files,
                    };
                    list.push(line.to_string());
                }
                "locks" => {
                    let (recv, rest) = line.split_once(':').ok_or_else(|| {
                        format!("policy line {lineno}: expected `recv: rank name`")
                    })?;
                    let mut parts = rest.split_whitespace();
                    let rank = parts
                        .next()
                        .and_then(|r| r.parse().ok())
                        .ok_or_else(|| format!("policy line {lineno}: missing numeric rank"))?;
                    let name = parts.next().unwrap_or("lock").to_string();
                    policy.locks.push(LockClass { receiver: recv.trim().to_string(), rank, name });
                }
                _ => return Err(format!("policy line {lineno}: entry outside any section")),
            }
        }
        Ok(policy)
    }

    /// Whether `rel_path` is covered by a path list (suffix match, so the
    /// policy stays valid when the repo is checked out under any root).
    pub fn matches(list: &[String], rel_path: &str) -> bool {
        list.iter().any(|p| rel_path.ends_with(p.as_str()))
    }

    /// The hot-function patterns for `rel_path`, if it is a declared hot
    /// file.
    pub fn hot_functions(&self, rel_path: &str) -> Option<&[String]> {
        self.hot
            .iter()
            .find(|h| rel_path.ends_with(h.path.as_str()))
            .map(|h| h.functions.as_slice())
    }

    /// The declared lock class for a `.lock()` receiver identifier.
    pub fn lock_class(&self, receiver: &str) -> Option<&LockClass> {
        self.locks.iter().find(|l| l.receiver == receiver)
    }
}

/// Whether `name` matches a function pattern (exact, `prefix*`, `*suffix`).
pub fn fn_pattern_matches(pattern: &str, name: &str) -> bool {
    if let Some(prefix) = pattern.strip_suffix('*') {
        name.starts_with(prefix)
    } else if let Some(suffix) = pattern.strip_prefix('*') {
        name.ends_with(suffix)
    } else {
        pattern == name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_sections() {
        let p = Policy::parse(
            "# comment\n[hot_alloc]\na/b.rs: dot, *_into\n[unsafe_files]\npool.rs\n\
             [determinism]\nreplay.rs\n[clock]\nclock.rs\n[locks]\ninner: 10 kv-pool\n",
        )
        .unwrap();
        assert_eq!(p.hot.len(), 1);
        assert_eq!(p.hot[0].functions, vec!["dot", "*_into"]);
        assert!(Policy::matches(&p.unsafe_files, "crates/serve/src/pool.rs"));
        assert_eq!(p.lock_class("inner").unwrap().rank, 10);
    }

    #[test]
    fn rejects_unknown_section_and_loose_entries() {
        assert!(Policy::parse("[nope]\n").is_err());
        assert!(Policy::parse("entry-before-any-section\n").is_err());
        assert!(Policy::parse("[locks]\ninner: notanumber\n").is_err());
    }

    #[test]
    fn wildcards() {
        assert!(fn_pattern_matches("*_into", "softmax_into"));
        assert!(fn_pattern_matches("quant_*", "quant_low_into"));
        assert!(fn_pattern_matches("dot", "dot"));
        assert!(!fn_pattern_matches("dot", "dots"));
    }
}
