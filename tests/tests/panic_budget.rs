//! A ratchet on panic sites in library code.
//!
//! Counts, in every `crates/*/src/**/*.rs`, the matches of `.unwrap()`,
//! `.expect(`, `panic!(` and `unreachable!(` outside test code: items
//! annotated `#[cfg(test)]` (to their matching close brace, or their
//! `;`) and files declared only as `#[cfg(test)] mod x;` are dropped, and
//! so are `//` comment lines (doc examples). `assert!`s and indexing are
//! not counted, so rewriting a counted site as an `assert!` hides it
//! without removing it: write such a check as `panic!(`. The test prints
//! the count per crate and fails when the total rises above [`BUDGET`];
//! lower the budget when sites go away.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Non-test panic sites the library code may hold.
const BUDGET: usize = 249;

const PATTERNS: [&str; 4] = [".unwrap()", ".expect(", "panic!(", "unreachable!("];

/// The source with `#[cfg(test)]` items and `//` comment lines removed,
/// and the module names the dropped items declared as files.
fn non_test_code(src: &str) -> (String, Vec<String>) {
    let mut kept = String::new();
    let mut test_mods = Vec::new();
    // Inside a test item: `None` until its first `{` (or its `;`), then
    // the brace depth.
    let mut skipping: Option<Option<i32>> = None;
    for line in src.lines() {
        let mut rest = line.trim_start();
        if skipping.is_none() {
            if rest.starts_with("//") {
                continue;
            }
            match rest.strip_prefix("#[cfg(test)]") {
                Some(after) => {
                    skipping = Some(None);
                    rest = after;
                }
                None => {
                    kept.push_str(line);
                    kept.push('\n');
                    continue;
                }
            }
        }
        let Some(depth) = skipping.as_mut() else {
            continue;
        };
        if depth.is_none() {
            if let Some(name) = rest
                .trim()
                .strip_prefix("mod ")
                .and_then(|m| m.strip_suffix(';'))
            {
                test_mods.push(name.trim().to_string());
                skipping = None;
                continue;
            }
        }
        for c in rest.chars() {
            match (c, *depth) {
                (';', None) => {
                    skipping = None;
                    break;
                }
                ('{', d) => *depth = Some(d.unwrap_or(0) + 1),
                ('}', Some(1)) => {
                    skipping = None;
                    break;
                }
                ('}', Some(d)) => *depth = Some(d - 1),
                _ => {}
            }
        }
    }
    (kept, test_mods)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Panic sites per crate directory name.
fn panic_sites(crates: &Path) -> BTreeMap<String, usize> {
    let mut per_crate = BTreeMap::new();
    for entry in fs::read_dir(crates).unwrap() {
        let dir = entry.unwrap().path();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        let mut code = BTreeMap::new();
        let mut test_only = HashSet::new();
        for file in files {
            let (kept, mods) = non_test_code(&fs::read_to_string(&file).unwrap());
            // `mod x;` in `a/lib.rs` or `a/mod.rs` is `a/x.rs`; in `a/b.rs`
            // it is `a/b/x.rs`.
            let stem = file.file_stem().unwrap().to_string_lossy();
            let base = match stem.as_ref() {
                "lib" | "main" | "mod" => file.parent().unwrap().to_path_buf(),
                _ => file.with_extension(""),
            };
            for m in mods {
                test_only.insert(base.join(format!("{m}.rs")));
                test_only.insert(base.join(&m).join("mod.rs"));
            }
            code.insert(file, kept);
        }
        let sites = code
            .iter()
            .filter(|(file, _)| !test_only.contains(*file))
            .map(|(_, kept)| {
                PATTERNS
                    .iter()
                    .map(|p| kept.matches(p).count())
                    .sum::<usize>()
            })
            .sum();
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        per_crate.insert(name, sites);
    }
    per_crate
}

#[test]
fn library_panic_sites_stay_within_budget() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    let per_crate = panic_sites(&crates);
    let total: usize = per_crate.values().sum();
    for (name, n) in &per_crate {
        println!("{name:>10} {n}");
    }
    println!("{:>10} {total} (budget {BUDGET})", "total");
    assert!(
        total <= BUDGET,
        "{total} non-test panic sites, budget {BUDGET}: return a typed error instead"
    );
}

#[test]
fn test_items_comments_and_test_files_are_not_counted() {
    let src = "\
fn a() { x.unwrap(); }
// y.unwrap() in a comment
#[cfg(test)]
mod tests {
    fn b() { if c { d.expect(\"e\"); } }
}
#[cfg(test)]
mod helpers;
#[cfg(test)]
use foo::bar;
fn f() { panic!(\"g\"); unreachable!(); }
";
    let (kept, mods) = non_test_code(src);
    assert_eq!(mods, ["helpers"]);
    let n: usize = PATTERNS.iter().map(|p| kept.matches(p).count()).sum();
    assert_eq!(n, 3, "{kept}");
}
