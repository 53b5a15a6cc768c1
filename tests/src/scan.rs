//! Source scanning shared by the ratchets over library code
//! (`panic_budget.rs`, `public_surface.rs`).

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The source with `#[cfg(test)]` items and `//` comment lines removed,
/// and the module names the dropped items declared as files.
pub fn non_test_code(src: &str) -> (String, Vec<String>) {
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

/// Every `.rs` file under `dir`, recursively, skipping `target`
/// directories.
pub fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The library code of every crate under `crates`, by crate directory
/// name: each `src/**/*.rs` file with its [`non_test_code`], leaving out
/// files declared only as `#[cfg(test)] mod x;`.
pub fn library_code(crates: &Path) -> BTreeMap<String, Vec<(PathBuf, String)>> {
    let mut per_crate = BTreeMap::new();
    for entry in fs::read_dir(crates).unwrap() {
        let dir = entry.unwrap().path();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        let mut code = Vec::new();
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
            code.push((file, kept));
        }
        code.retain(|(file, _)| !test_only.contains(file));
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        per_crate.insert(name, code);
    }
    per_crate
}
