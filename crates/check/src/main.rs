//! `oasis-check`: repo-wide static analyzer. Run from the workspace root
//! (or pass it as the first argument).
//!
//! ```text
//! oasis-check [ROOT] [--explain RULE] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO errors.

use oasis_check::{registry, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: oasis-check [ROOT] [--explain RULE] [--list-rules]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list-rules" => {
                for r in registry::REGISTRY {
                    let summary = r.summary.split_whitespace().collect::<Vec<_>>();
                    println!("{:28} {}", r.id, summary.join(" "));
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                let rule = args.next().unwrap_or_default();
                let Some(info) = registry::find(&rule) else {
                    eprintln!(
                        "oasis-check: unknown rule '{rule}'. Rules: {}",
                        RULES.join(", ")
                    );
                    return ExitCode::from(2);
                };
                print!("{}", registry::explain(info));
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("oasis-check: unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => root = PathBuf::from(path),
        }
    }

    if !root.join("crates").is_dir() {
        eprintln!(
            "oasis-check: {} has no crates/ directory (run from the workspace root)",
            root.display()
        );
        return ExitCode::from(2);
    }
    let findings = match oasis_check::check_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("oasis-check: walk failed: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("oasis-check: clean ({} rules)", RULES.len());
        ExitCode::SUCCESS
    } else {
        println!("oasis-check: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
