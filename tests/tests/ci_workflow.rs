//! Rot guard for `.github/workflows/ci.yml`: no job runs in this
//! repository's own test suite, so a renamed binary, test target,
//! package or file would otherwise only fail on the CI host.

use std::path::{Path, PathBuf};

/// Directories holding the repository's own sources — each a package or
/// a directory of packages. A workflow token under one of them must
/// exist (build outputs such as `results/` are not checked).
const SOURCE_DIRS: [&str; 5] = ["crates", "tests", "examples", "vendor", "benchmark"];

#[test]
fn ci_workflow_names_only_things_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let yml = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
    assert!(!yml.contains('\t'), "ci.yml contains a tab");

    let mut packages: Vec<PathBuf> = Vec::new();
    for dir in SOURCE_DIRS.map(|d| root.join(d)) {
        if dir.join("Cargo.toml").is_file() {
            packages.push(dir);
        } else {
            packages.extend(std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()));
        }
    }
    let names: Vec<String> = packages
        .iter()
        .map(|p| {
            let manifest = std::fs::read_to_string(p.join("Cargo.toml")).unwrap();
            let line = manifest.lines().find(|l| l.starts_with("name = ")).unwrap();
            line["name = ".len()..].trim_matches('"').to_string()
        })
        .collect();
    let target = |sub: &str, name: &str| {
        packages
            .iter()
            .any(|p| p.join(sub).join(format!("{name}.rs")).is_file())
    };

    let tokens: Vec<&str> = yml
        .split(|c: char| c.is_whitespace() || "\"'`()".contains(c))
        .map(|t| t.trim_end_matches([',', '.', ';', ':']))
        .collect();
    for (i, &tok) in tokens.iter().enumerate() {
        let next = tokens.get(i + 1).copied().unwrap_or("");
        match tok {
            "--bin" => assert!(target("src/bin", next), "ci.yml: no binary `{next}`"),
            "--test" => assert!(target("tests", next), "ci.yml: no test target `{next}`"),
            "-p" => assert!(
                names.iter().any(|n| n == next),
                "ci.yml: no package `{next}`"
            ),
            _ if SOURCE_DIRS
                .iter()
                .any(|d| tok.strip_prefix(d).is_some_and(|r| r.starts_with('/'))) =>
            {
                assert!(root.join(tok).exists(), "ci.yml: no such path `{tok}`")
            }
            _ => {}
        }
    }
}
