//! A ratchet on public functions nobody calls.
//!
//! A `pub fn` in library code (`crates/*/src`, as `bh_tests::library_code`
//! reads it) is dead when its name appears nowhere except its own
//! definition, `pub use` statements, `//` comment lines, and
//! `#[cfg(test)]` code in its own file. Any other appearance counts as a
//! caller: in its own file's library code, or anywhere in another `.rs`
//! file of `crates/`, `tests/`, `examples/` or `benchmark/`, tests
//! included. Names are matched as whole identifiers, and `fn NAME` is a
//! definition wherever it appears, so the rule is by name, not by type:
//! a `pub fn len` stays alive while anything calls any `len`.
//!
//! The test fails on every dead function not in [`ALLOWED`]; delete the
//! function, or add an entry that says why it must stay.

use bh_tests::{library_code, non_test_code, rust_files};
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Dead public functions that stay anyway: `(file under the repository
/// root, function name, reason)`.
const ALLOWED: &[(&str, &str, &str)] = &[];

/// Directories whose `.rs` files may call library code.
const CALLER_DIRS: [&str; 4] = ["crates", "tests", "examples", "benchmark"];

/// The identifiers at byte offsets of `line`, in order.
fn idents(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices().chain([(line.len(), ' ')]) {
        let word = c.is_alphanumeric() || c == '_';
        match (start, word) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                if !line[s..].starts_with(|c: char| c.is_ascii_digit()) {
                    out.push((s, &line[s..i]));
                }
                start = None;
            }
            _ => {}
        }
    }
    out
}

/// Names `code` defines as `pub fn` (with any of `const`, `async`,
/// `unsafe` between; `pub(crate)` and narrower do not count).
fn pub_fns(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for line in code.lines() {
        let words = idents(line);
        for (k, &(at, word)) in words.iter().enumerate() {
            if word != "pub" || !line[at + 3..].starts_with(' ') {
                continue;
            }
            let mut rest = words[k + 1..].iter().map(|&(_, w)| w);
            let mut next = rest.next();
            while matches!(next, Some("const" | "async" | "unsafe")) {
                next = rest.next();
            }
            if let (Some("fn"), Some(name)) = (next, rest.next()) {
                out.push(name);
            }
        }
    }
    out
}

/// Identifiers `code` uses: every identifier outside `//` comment lines
/// and `pub use` statements, except the name after each `fn`.
fn uses(code: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut in_pub_use = false;
    for line in code.lines() {
        let trimmed = line.trim_start();
        if in_pub_use || trimmed.starts_with("pub use ") {
            in_pub_use = !line.contains(';');
            continue;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        let mut after_fn = false;
        for (_, word) in idents(line) {
            if !after_fn {
                out.insert(word.to_string());
            }
            after_fn = word == "fn";
        }
    }
    out
}

/// One scanned file: its whole text's uses, and, for library files, the
/// `pub fn`s its library code defines and that code's own uses.
struct Scanned {
    path: PathBuf,
    uses: HashSet<String>,
    library: Option<(Vec<String>, HashSet<String>)>,
}

/// `(path, name)` of every dead `pub fn` among `files`.
fn dead_fns(files: &[Scanned]) -> Vec<(PathBuf, String)> {
    let mut dead = Vec::new();
    for (i, file) in files.iter().enumerate() {
        let Some((defs, own)) = &file.library else {
            continue;
        };
        for name in defs {
            let called = own.contains(name)
                || files
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && other.uses.contains(name));
            if !called {
                dead.push((file.path.clone(), name.clone()));
            }
        }
    }
    dead
}

fn scan(path: PathBuf, text: &str, library: Option<&str>) -> Scanned {
    Scanned {
        path,
        uses: uses(text),
        library: library.map(|code| {
            let defs = pub_fns(code).into_iter().map(String::from).collect();
            (defs, uses(code))
        }),
    }
}

#[test]
fn every_public_function_has_a_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let library: Vec<(PathBuf, String)> = library_code(&root.join("crates"))
        .into_values()
        .flatten()
        .collect();
    let mut paths = Vec::new();
    for dir in CALLER_DIRS {
        rust_files(&root.join(dir), &mut paths);
    }
    let files: Vec<Scanned> = paths
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).unwrap();
            let code = library.iter().find(|(p, _)| *p == path).map(|(_, c)| c);
            scan(path, &text, code.map(String::as_str))
        })
        .collect();
    let defined: usize = files
        .iter()
        .filter_map(|f| f.library.as_ref().map(|(defs, _)| defs.len()))
        .sum();
    println!("{defined} pub fns in {} library files", library.len());
    let dead: Vec<String> = dead_fns(&files)
        .into_iter()
        .map(|(path, name)| {
            let rel = path
                .strip_prefix(root)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            (rel, name)
        })
        .filter(|(rel, name)| !ALLOWED.iter().any(|&(f, n, _)| f == rel && n == name))
        .map(|(rel, name)| format!("{rel}: {name}"))
        .collect();
    assert!(
        dead.is_empty(),
        "public functions with no caller (delete them, or allow one with a reason):\n{}",
        dead.join("\n")
    );
}

#[test]
fn the_rule_ignores_definitions_comments_reexports_and_own_tests() {
    let lib = "\
pub fn used_by_test() {}
pub fn used_by_comment() {}
pub fn used_by_reexport() {}
pub fn used_by_own_test() {}
pub fn used_by_own_code() {}
pub(crate) fn narrow() {}
pub const fn constant() {}
fn helper() { used_by_own_code(); }
#[cfg(test)]
mod tests {
    fn t() { super::used_by_own_test(); }
}
";
    let other_test = "#[test]\nfn t() { x::used_by_test(); }\n";
    let other_mod = "\
// used_by_comment() is mentioned here
pub use x::{
    used_by_reexport,
    constant,
};
fn used_by_own_code() {}
";
    let (code, _) = non_test_code(lib);
    let files = [
        scan("lib.rs".into(), lib, Some(&code)),
        scan("tests/a.rs".into(), other_test, None),
        scan("b.rs".into(), other_mod, None),
    ];
    let dead: Vec<String> = dead_fns(&files).into_iter().map(|(_, n)| n).collect();
    assert_eq!(
        dead,
        [
            "used_by_comment",
            "used_by_reexport",
            "used_by_own_test",
            "constant"
        ]
    );
}
