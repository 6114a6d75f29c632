//! Three counts over the workspace's crates that only fall.
//!
//! - `unsafe`: the lines of `crates/*/src` that open an `unsafe` block,
//!   function or impl — what `grep -rnE 'unsafe (\{|fn|impl)'
//!   crates/*/src` counts.
//! - `static`: the `static` items of `crates/*/src`, taking only the
//!   lines before each file's top-level `#[cfg(test)]`. State a caller
//!   owns is state a test can build its own of; a `static` is shared by
//!   every caller and every test in the process.
//! - `pub`: the lines under `crates/` that declare a public item — what
//!   `grep -rE '^\s*pub (fn|struct|enum|mod|trait|type|const|static|use)'
//!   crates | wc -l` counts. Each is API a reader has to learn.
//!
//! Each fails when its count exceeds its budget. A change that removes
//! one lowers the budget in the same change.

use std::fs;
use std::path::{Path, PathBuf};

/// The checked-in number of `unsafe` sites.
const UNSAFE_BUDGET: usize = 27;

/// The checked-in number of non-test `static` items.
const STATIC_BUDGET: usize = 5;

/// The checked-in number of `pub` item lines.
const PUB_BUDGET: usize = 784;

/// Every file under `dir`, depth first in name order.
fn files(dir: &Path, found: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files(&path, found);
        } else {
            found.push(path);
        }
    }
}

/// The workspace's `crates/` directory.
fn crates() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")
}

/// The `.rs` files of every crate's `src`.
fn src_files() -> Vec<PathBuf> {
    let mut members: Vec<_> = fs::read_dir(crates())
        .expect("the workspace's crates")
        .map(|entry| entry.expect("a directory entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    members.sort();
    assert!(members.len() >= 5, "found only {members:?}");
    let mut found = Vec::new();
    for src in &members {
        files(src, &mut found);
    }
    found.retain(|path| path.extension().is_some_and(|ext| ext == "rs"));
    found
}

/// The lines of `paths` that `counts` accepts, as `path:line`, reading
/// each file up to its first line that `ends` accepts.
fn sites(paths: &[PathBuf], counts: fn(&str) -> bool, ends: fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for path in paths {
        let text = fs::read_to_string(path).expect("a text file");
        let lines = text.lines().take_while(|line| !ends(line));
        for (i, line) in lines.enumerate() {
            if counts(line) {
                found.push(format!("{}:{}", path.display(), i + 1));
            }
        }
    }
    found
}

fn assert_within(found: &[String], budget: usize, what: &str) {
    assert!(
        found.len() <= budget,
        "{} {what}, over the budget of {budget}:\n{}",
        found.len(),
        found.join("\n")
    );
}

/// Whether `line` opens an `unsafe` block, function or impl.
fn opens_unsafe(line: &str) -> bool {
    ["unsafe {", "unsafe fn", "unsafe impl"]
        .iter()
        .any(|site| line.contains(site))
}

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

/// The item kinds the `pub` count's pattern names.
const PUB_KINDS: [&str; 9] = [
    "fn", "struct", "enum", "mod", "trait", "type", "const", "static", "use",
];

/// Whether `line` matches `^\s*pub (fn|struct|enum|mod|trait|type|const|static|use)`.
fn declares_pub(line: &str) -> bool {
    let rest = line.trim_start().strip_prefix("pub ");
    rest.is_some_and(|rest| PUB_KINDS.iter().any(|kind| rest.starts_with(kind)))
}

#[test]
fn the_unsafe_count_stays_within_its_budget() {
    let found = sites(&src_files(), opens_unsafe, |_| false);
    assert_within(&found, UNSAFE_BUDGET, "unsafe sites");
}

#[test]
fn the_static_count_stays_within_its_budget() {
    let found = sites(&src_files(), declares_static, |line| {
        line.starts_with("#[cfg(test)]")
    });
    assert_within(&found, STATIC_BUDGET, "static items");
}

#[test]
fn the_pub_count_stays_within_its_budget() {
    let mut all = Vec::new();
    files(&crates(), &mut all);
    let found = sites(&all, declares_pub, |_| false);
    assert_within(&found, PUB_BUDGET, "pub items");
}

#[test]
fn the_count_sees_every_kind_of_site() {
    assert!(opens_unsafe("    let x = unsafe { *p };"));
    assert!(opens_unsafe("pub(crate) unsafe fn at(self, i: usize)"));
    assert!(opens_unsafe("unsafe impl Send for Part<'_> {}"));
    assert!(!opens_unsafe("// no unsafe here"));
    assert!(!opens_unsafe("#![deny(unsafe_code)]"));
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

#[test]
fn the_count_sees_every_kind_of_pub() {
    for kind in PUB_KINDS {
        assert!(declares_pub(&format!("pub {kind} x")), "{kind}");
        assert!(
            declares_pub(&format!("    pub {kind} x")),
            "indented {kind}"
        );
    }
    assert!(declares_pub("\tpub const fn f() {}"));
    assert!(!declares_pub("pub(crate) fn f() {}"));
    assert!(!declares_pub("/// pub fn f() {}"));
    assert!(!declares_pub("pub unsafe fn f() {}"));
    assert!(!declares_pub("fn publish() {}"));
}
