//! The count of process-wide `static`s only falls.
//!
//! Counts the `static` items of `crates/*/src`, taking only the lines
//! before each file's top-level `#[cfg(test)]`, and fails when there
//! are more than [`BUDGET`]. State a caller owns is state a test can
//! build its own of; a `static` is shared by every caller and every
//! test in the process. A change that removes one lowers the budget in
//! the same change.

use std::fs;
use std::path::Path;

/// The checked-in number of non-test `static` items.
const BUDGET: usize = 5;

/// Whether `line` declares a `static` item (any visibility).
fn declares_static(line: &str) -> bool {
    let line = line.trim_start();
    let line = match line.strip_prefix("pub") {
        // `pub(crate) static`, `pub(super) static`, …
        Some(rest) if rest.starts_with('(') => rest.split_once(')').map_or(rest, |(_, at)| at),
        Some(rest) => rest,
        None => line,
    };
    line.trim_start().starts_with("static ")
}

/// The `static` items in the `.rs` files under `dir`, as `path:line`.
fn statics(dir: &Path, found: &mut Vec<String>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            statics(&path, found);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = fs::read_to_string(&path).expect("a source file");
            let lines = text
                .lines()
                .take_while(|line| !line.starts_with("#[cfg(test)]"));
            for (i, line) in lines.enumerate() {
                if declares_static(line) {
                    found.push(format!("{}:{}", path.display(), i + 1));
                }
            }
        }
    }
}

#[test]
fn the_static_count_stays_within_its_budget() {
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
        statics(src, &mut found);
    }
    assert!(
        found.len() <= BUDGET,
        "{} static items, over the budget of {BUDGET}:\n{}",
        found.len(),
        found.join("\n")
    );
}

#[test]
fn the_count_sees_every_kind_of_static() {
    assert!(declares_static(
        "static PLANS: PlanCache = PlanCache::new(32);"
    ));
    assert!(declares_static(
        "    static FAULT: AtomicU64 = AtomicU64::new(0);"
    ));
    assert!(declares_static("pub static X: Mutex<()> = Mutex::new(());"));
    assert!(declares_static("pub(crate) static TEAM: Team = Team {"));
    assert!(!declares_static("fn f(s: &'static str) {}"));
    assert!(!declares_static("// no static here"));
    assert!(!declares_static("pub fn statics() {}"));
}
