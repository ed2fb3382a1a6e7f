//! CLI entry point: `cargo run -p opal-tidy`.
//!
//! Loads `tools/tidy/tidy.policy`, lints every `crates/*/src` source, and
//! exits non-zero when any violation is found.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // The binary lives at tools/tidy, so the workspace root is two up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().unwrap_or(root);

    let policy_path = root.join(opal_tidy::POLICY_PATH);
    let policy_text = match std::fs::read_to_string(&policy_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tidy: cannot read {}: {e}", policy_path.display());
            return ExitCode::FAILURE;
        }
    };
    let policy = match opal_tidy::Policy::parse(&policy_text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tidy: bad policy: {e}");
            return ExitCode::FAILURE;
        }
    };

    match opal_tidy::run(&root, &policy) {
        Ok((violations, files)) => {
            if violations.is_empty() {
                println!("tidy: {files} files checked, no violations");
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("tidy: {} violation(s) in {files} files", violations.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("tidy: walk failed: {e}");
            ExitCode::FAILURE
        }
    }
}
