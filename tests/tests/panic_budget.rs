//! A ratchet on panic sites in library code.
//!
//! Counts, in every `crates/*/src/**/*.rs`, the matches of `.unwrap()`,
//! `.expect(`, `panic!(` and `unreachable!(` outside test code: items
//! annotated `#[cfg(test)]` (to their matching close brace, or their
//! `;`) and files declared only as `#[cfg(test)] mod x;` are dropped, and
//! so are `//` comment lines (doc examples); `bh_tests::library_code`
//! does the scan. `assert!`s and indexing are not counted, so rewriting
//! a counted site as an `assert!` hides it without removing it: write
//! such a check as `panic!(`. The test prints the count per crate and
//! fails when the total rises above [`BUDGET`]; lower the budget when
//! sites go away.

use bh_tests::{library_code, non_test_code};
use std::collections::BTreeMap;
use std::path::Path;

/// Non-test panic sites the library code may hold.
const BUDGET: usize = 92;

const PATTERNS: [&str; 4] = [".unwrap()", ".expect(", "panic!(", "unreachable!("];

/// Panic sites per crate directory name.
fn panic_sites(crates: &Path) -> BTreeMap<String, usize> {
    library_code(crates)
        .into_iter()
        .map(|(name, files)| {
            let sites = files
                .iter()
                .map(|(_, kept)| {
                    PATTERNS
                        .iter()
                        .map(|p| kept.matches(p).count())
                        .sum::<usize>()
                })
                .sum();
            (name, sites)
        })
        .collect()
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
