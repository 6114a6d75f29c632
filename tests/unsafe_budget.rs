//! The `unsafe` count only falls.
//!
//! Counts the lines of `crates/*/src` that open an `unsafe` block,
//! function or impl — what `grep -rnE 'unsafe (\{|fn|impl)' crates/*/src`
//! counts — and fails when there are more than [`BUDGET`]. A change that
//! removes a site lowers the budget in the same change.

use std::fs;
use std::path::Path;

/// The checked-in number of `unsafe` sites.
const BUDGET: usize = 27;

/// Whether `line` opens an `unsafe` block, function or impl.
fn opens_unsafe(line: &str) -> bool {
    ["unsafe {", "unsafe fn", "unsafe impl"]
        .iter()
        .any(|site| line.contains(site))
}

/// The `unsafe` sites in the `.rs` files under `dir`, as `path:line`.
fn sites(dir: &Path, found: &mut Vec<String>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sites(&path, found);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = fs::read_to_string(&path).expect("a source file");
            for (i, line) in text.lines().enumerate() {
                if opens_unsafe(line) {
                    found.push(format!("{}:{}", path.display(), i + 1));
                }
            }
        }
    }
}

#[test]
fn the_unsafe_count_stays_within_its_budget() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut found = Vec::new();
    let mut members: Vec<_> = fs::read_dir(&crates)
        .expect("the workspace's crates")
        .map(|entry| entry.expect("a directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    members.sort();
    assert!(members.len() >= 5, "found only {members:?}");
    for src in &members {
        sites(src, &mut found);
    }
    assert!(
        found.len() <= BUDGET,
        "{} unsafe sites, over the budget of {BUDGET}:\n{}",
        found.len(),
        found.join("\n")
    );
}

#[test]
fn the_count_sees_every_kind_of_site() {
    assert!(opens_unsafe("    let x = unsafe { *p };"));
    assert!(opens_unsafe("pub(crate) unsafe fn at(self, i: usize)"));
    assert!(opens_unsafe("unsafe impl Send for Part<'_> {}"));
    assert!(!opens_unsafe("// no unsafe here"));
    assert!(!opens_unsafe("#![deny(unsafe_code)]"));
}
