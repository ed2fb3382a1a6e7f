//! `opal-tidy`: the workspace invariant linter.
//!
//! A tidy-style static-analysis pass (in the spirit of rust-lang's own
//! `tidy` source checks) that walks every `crates/*/src` file and enforces
//! the policy declared in `tools/tidy/tidy.policy`:
//!
//! 1. **hot-path allocation** — no allocating calls inside declared
//!    allocation-free hot functions (`// tidy: allow(alloc) -- reason`
//!    escapes);
//! 2. **unsafe discipline** — `unsafe` only in allowlisted files, every
//!    use with an adjacent `// SAFETY:` comment;
//! 3. **panic discipline** — no `unwrap`/`expect`/`panic!` family in
//!    non-test library code (`// tidy: allow(panic) -- reason` escapes);
//! 4. **determinism** — wall-clock reads only in the declared clock shim;
//!    no `HashMap`/`HashSet` in modules promising bit-identical output;
//! 5. **lock order** — nested `.lock()` acquisitions must follow the
//!    declared global ranking;
//! 6. **stale policy** — every policy path must match a linted file and
//!    every exact hot-function name a `fn` in its file, so deleting a hot
//!    function cannot silently un-guard its entry.
//!
//! The pass is purely lexical: a small comment/string/raw-string-aware
//! lexer produces a blanked *code view* (see [`lexer::SourceView`]), so no
//! pattern ever matches inside prose, string data, or doc examples. Run it
//! with `cargo run -p opal-tidy`; it exits non-zero on any violation.

use std::path::{Path, PathBuf};

pub mod lexer;
pub mod lints;
pub mod policy;

pub use lints::{Lint, Violation};
pub use policy::Policy;

/// The policy manifest's workspace-relative path (where stale-entry
/// findings point).
pub const POLICY_PATH: &str = "tools/tidy/tidy.policy";

/// Lints one file's source text under `policy`. `rel_path` is the
/// workspace-relative path used both for diagnostics and for policy
/// matching.
pub fn check_source(rel_path: &str, source: &str, policy: &Policy) -> Vec<Violation> {
    check_file(rel_path, source, policy).0
}

/// [`check_source`], also returning the names of the functions the file
/// defines (the input of the stale-policy check).
fn check_file(rel_path: &str, source: &str, policy: &Policy) -> (Vec<Violation>, Vec<String>) {
    let view = lexer::SourceView::lex(source);
    let fns = lints::function_spans(&view);
    let tests = lints::test_spans(&view);
    let mut out = Vec::new();
    lints::check_escape_hygiene(rel_path, &view, &mut out);
    lints::lint_hot_alloc(rel_path, &view, policy, &fns, &tests, &mut out);
    lints::lint_unsafe(rel_path, &view, policy, &mut out);
    lints::lint_panic(rel_path, &view, &tests, &mut out);
    lints::lint_determinism(rel_path, &view, policy, &tests, &mut out);
    lints::lint_lock_order(rel_path, &view, policy, &fns, &tests, &mut out);
    out.sort_by_key(|v| v.line);
    (out, fns.into_iter().map(|f| f.name).collect())
}

/// Collects every library source under `crates/*/src`, skipping `bin/`
/// directories (binaries are exempt from the library lints, like tests
/// and benches).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut stack = vec![crates_dir];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                // Only descend into each crate's `src`, and skip `bin/`.
                let is_crate_root = path.parent() == Some(root.join("crates").as_path());
                if is_crate_root {
                    stack.push(path.join("src"));
                } else if name != "bin" && path.exists() {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the whole pass over the workspace at `root`: every file's lints,
/// then the stale-policy check against the files and functions found.
/// Returns every violation plus the number of files checked.
pub fn run(root: &Path, policy: &Policy) -> std::io::Result<(Vec<Violation>, usize)> {
    let files = workspace_sources(root)?;
    let mut all = Vec::new();
    let mut defined = Vec::new();
    for path in &files {
        let source = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let (violations, fns) = check_file(&rel, &source, policy);
        all.extend(violations);
        defined.push((rel, fns));
    }
    lints::lint_stale_policy(policy, &defined, &mut all);
    Ok((all, files.len()))
}

#[cfg(test)]
mod fixtures {
    //! Fixture-based tests: each lint family is fed a violating snippet
    //! (as a string fixture) and must fire, then a compliant or escaped
    //! variant and must stay quiet.

    use super::*;

    fn test_policy() -> Policy {
        Policy::parse(
            "[hot_alloc]\n\
             crates/model/src/infer.rs: decode_core, *_into\n\
             [unsafe_files]\n\
             crates/serve/src/pool.rs\n\
             [determinism]\n\
             crates/scenario/src/replay.rs\n\
             [clock]\n\
             crates/serve/src/clock.rs\n\
             [locks]\n\
             inner: 10 kv-block-pool\n\
             trie_guard: 20 prefix-trie\n",
        )
        .expect("fixture policy parses")
    }

    fn lint_names(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.lint.name()).collect()
    }

    #[test]
    fn alloc_lint_fires_in_hot_fn_only() {
        let p = test_policy();
        let bad = "fn decode_core(x: &[f32]) -> Vec<f32> {\n    let v = x.to_vec();\n    v\n}\n";
        let hits = check_source("crates/model/src/infer.rs", bad, &p);
        assert!(lint_names(&hits).contains(&"alloc"), "to_vec in hot fn must fire: {hits:?}");

        // Same code in a non-hot function: quiet.
        let cold = "fn helper(x: &[f32]) -> Vec<f32> {\n    x.to_vec()\n}\n";
        assert!(check_source("crates/model/src/infer.rs", cold, &p).is_empty());

        // Wildcard coverage and escape.
        let escaped = "fn softmax_into(out: &mut Vec<f32>) {\n    \
                       // tidy: allow(alloc) -- amortized: capacity reused across calls\n    \
                       out.push(1.0);\n}\n";
        assert!(check_source("crates/model/src/infer.rs", escaped, &p).is_empty());

        let wildcard = "fn softmax_into(out: &mut Vec<f32>) {\n    out.push(1.0);\n}\n";
        let hits = check_source("crates/model/src/infer.rs", wildcard, &p);
        assert_eq!(lint_names(&hits), vec!["alloc"]);
    }

    #[test]
    fn alloc_lint_ignores_strings_and_comments() {
        let p = test_policy();
        let src = "fn decode_core() {\n    // calls Vec::new() conceptually\n    \
                   let s = \"Vec::new()\";\n    let _ = s;\n}\n";
        assert!(check_source("crates/model/src/infer.rs", src, &p).is_empty());
    }

    #[test]
    fn unsafe_lint_needs_allowlist_and_safety_comment() {
        let p = test_policy();
        let outside = "fn f() {\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
        let hits = check_source("crates/model/src/infer.rs", outside, &p);
        assert!(lint_names(&hits).contains(&"unsafe"), "unsafe outside allowlist: {hits:?}");

        let undocumented = "fn f() {\n    let x = unsafe { *p };\n}\n";
        let hits = check_source("crates/serve/src/pool.rs", undocumented, &p);
        assert_eq!(lint_names(&hits), vec!["unsafe"]);

        let documented =
            "fn f() {\n    // SAFETY: p is valid for reads; see dispatch protocol.\n    \
                          let x = unsafe { *p };\n}\n";
        assert!(check_source("crates/serve/src/pool.rs", documented, &p).is_empty());
    }

    #[test]
    fn panic_lint_exempts_tests_and_honors_escapes() {
        let p = test_policy();
        let bad = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", bad, &p);
        assert_eq!(lint_names(&hits), vec!["panic"]);

        let in_tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                        Some(1).unwrap();\n        panic!(\"boom\");\n    }\n}\n";
        assert!(check_source("crates/serve/src/engine.rs", in_tests, &p).is_empty());

        let escaped = "fn f(x: Option<u32>) -> u32 {\n    \
                       x.expect(\"invariant: x is set by admit()\") \
                       // tidy: allow(panic) -- scheduler invariant, audited per step\n}\n";
        assert!(check_source("crates/serve/src/engine.rs", escaped, &p).is_empty());

        // An escape without a reason is itself a violation.
        let unjustified = "fn f(x: Option<u32>) -> u32 {\n    \
                           // tidy: allow(panic)\n    x.unwrap()\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", unjustified, &p);
        assert!(
            hits.iter().any(|v| v.message.contains("justification")),
            "unjustified escape must be reported: {hits:?}"
        );
    }

    #[test]
    fn determinism_lint_covers_clock_and_hash_iteration() {
        let p = test_policy();
        let clock = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", clock, &p);
        assert_eq!(lint_names(&hits), vec!["determinism"]);

        // The declared clock shim may read the wall clock.
        assert!(check_source("crates/serve/src/clock.rs", clock, &p).is_empty());

        let hash = "use std::collections::HashMap;\nfn f() {\n    \
                    let m: HashMap<u32, u32> =\n        HashMap::new();\n}\n";
        let hits = check_source("crates/scenario/src/replay.rs", hash, &p);
        assert!(hits.iter().all(|v| v.lint == Lint::Determinism));
        assert_eq!(hits.len(), 3, "use + type + ctor lines: {hits:?}");

        // HashMap outside a determinism module is fine.
        assert!(check_source("crates/serve/src/trie.rs", hash, &p).is_empty());
    }

    #[test]
    fn lock_order_lint_checks_rank_and_declaration() {
        let p = test_policy();
        // trie (rank 20) then inner (rank 10) while the guard is held:
        // out of order.
        let bad = "fn f(&self) {\n    let g = self.trie_guard.lock();\n    \
                   let h = self.inner.lock();\n    drop((g, h));\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", bad, &p);
        assert_eq!(lint_names(&hits), vec!["lock_order"], "{hits:?}");

        // The declared order is fine.
        let good = "fn f(&self) {\n    let g = self.inner.lock();\n    \
                    let h = self.trie_guard.lock();\n    drop((g, h));\n}\n";
        assert!(check_source("crates/serve/src/engine.rs", good, &p).is_empty());

        // Sequential (non-nested) acquisition in separate blocks is fine.
        let seq = "fn f(&self) {\n    {\n        let g = self.trie_guard.lock();\n    }\n    \
                   let h = self.inner.lock();\n}\n";
        assert!(check_source("crates/serve/src/engine.rs", seq, &p).is_empty());

        // An undeclared receiver must be added to the manifest.
        let unknown = "fn f(&self) {\n    let g = self.mystery.lock();\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", unknown, &p);
        assert!(hits.iter().any(|v| v.message.contains("undeclared")), "{hits:?}");
    }

    #[test]
    fn stale_policy_entries_are_violations() {
        let p = Policy::parse(
            "[hot_alloc]\n\
             crates/model/src/infer.rs: prefill_core, decode_core, argmax, *_gone\n\
             [unsafe_files]\n\
             crates/serve/src/pool.rs\n\
             [clock]\n\
             crates/serve/src/gone.rs\n",
        )
        .expect("fixture policy parses");
        let names = |fns: &[&str]| fns.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        let defined = vec![
            ("crates/model/src/infer.rs".to_string(), names(&["prefill_core", "helper"])),
            // `argmax` exists, but not in the file its entry names.
            ("crates/tensor/src/ops.rs".to_string(), names(&["argmax", "decode_core"])),
            ("crates/serve/src/pool.rs".to_string(), Vec::new()),
        ];
        let mut hits = Vec::new();
        lints::lint_stale_policy(&p, &defined, &mut hits);
        let found: Vec<(usize, &str)> = hits.iter().map(|v| (v.line, v.message.as_str())).collect();
        assert_eq!(
            found,
            vec![
                (6, "policy path `crates/serve/src/gone.rs` matches no linted file"),
                (2, "hot function `decode_core` matches no `fn` in `crates/model/src/infer.rs`"),
                (2, "hot function `argmax` matches no `fn` in `crates/model/src/infer.rs`"),
            ],
            "wildcards are exempt, exact names need a fn in their own file"
        );
        assert!(hits.iter().all(|v| v.lint == Lint::Policy && v.file == POLICY_PATH));

        // Every entry live: quiet.
        let defined = vec![
            (
                "crates/model/src/infer.rs".to_string(),
                names(&["prefill_core", "decode_core", "argmax"]),
            ),
            ("crates/serve/src/pool.rs".to_string(), Vec::new()),
            ("crates/serve/src/gone.rs".to_string(), Vec::new()),
        ];
        let mut hits = Vec::new();
        lints::lint_stale_policy(&p, &defined, &mut hits);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn violations_carry_position_and_render() {
        let p = test_policy();
        let bad = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let hits = check_source("crates/serve/src/engine.rs", bad, &p);
        assert_eq!(hits[0].line, 2);
        let rendered = hits[0].to_string();
        assert!(rendered.contains("crates/serve/src/engine.rs:2"), "{rendered}");
        assert!(rendered.contains("[panic]"), "{rendered}");
    }
}
