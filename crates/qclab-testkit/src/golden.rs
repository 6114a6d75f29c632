//! Checked-in goldens: a test's recorded output, compared byte for byte.
//!
//! [`golden!`](crate::golden!)`(name, actual)` compares `actual` with the
//! calling crate's `tests/golden/<name>.txt`.
//! [`seeded_golden!`](crate::seeded_golden!)`(name, contract, actual)` is
//! for an output the `(seed, shot)` contract pins: its history is one
//! file per contract, `tests/golden/<name>/<contract>.txt`, and
//! [`Goldens::check_seeded`] keeps that history and the contract number
//! moving together.
//!
//! On a mismatch the actual text is written under the test's
//! `CARGO_TARGET_TMPDIR`, in `golden/` at the golden file's own path
//! from the workspace root, and the panic names the first differing line
//! and the `cp` that re-records the golden. So `cp -r target/tmp/golden/* .`
//! at the workspace root re-records every golden a run refused; a golden
//! that matches removes its dump.

use std::fs;
use std::path::{Path, PathBuf};

/// Compares `actual` with the calling crate's `tests/golden/<name>.txt`
/// and panics on a mismatch (see the [module docs](mod@crate::golden)).
#[macro_export]
macro_rules! golden {
    ($name:expr, $actual:expr) => {
        if let ::std::result::Result::Err(e) = $crate::golden::Goldens::of_test_crate(
            env!("CARGO_MANIFEST_DIR"),
            env!("CARGO_TARGET_TMPDIR"),
        )
        .check($name, &$actual)
        {
            panic!("{e}");
        }
    };
}

/// Compares `actual` with the calling crate's
/// `tests/golden/<name>/<contract>.txt` under the generation rules of
/// [`Goldens::check_seeded`], and panics when one fails.
#[macro_export]
macro_rules! seeded_golden {
    ($name:expr, $contract:expr, $actual:expr) => {
        if let ::std::result::Result::Err(e) = $crate::golden::Goldens::of_test_crate(
            env!("CARGO_MANIFEST_DIR"),
            env!("CARGO_TARGET_TMPDIR"),
        )
        .check_seeded($name, $contract, &$actual)
        {
            panic!("{e}");
        }
    };
}

/// Where a test crate's goldens live and where a mismatch is dumped.
#[derive(Debug)]
pub struct Goldens {
    /// The checked-in goldens: `<crate>/tests/golden`.
    dir: PathBuf,
    /// Where the actual text of a refused golden is written, at the
    /// golden's path below `dir`.
    dump: PathBuf,
}

impl Goldens {
    /// The goldens of the test crate at `manifest_dir`, dumped below
    /// `<target_tmpdir>/golden` at their path from the workspace root.
    pub fn of_test_crate(manifest_dir: &str, target_tmpdir: &str) -> Self {
        let dir = Path::new(manifest_dir).join("tests/golden");
        // this crate sits at `<workspace>/crates/qclab-testkit`
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
        let from_root = workspace
            .and_then(|w| dir.strip_prefix(w).ok())
            .unwrap_or(Path::new("tests/golden"));
        let dump = Path::new(target_tmpdir).join("golden").join(from_root);
        Goldens { dir, dump }
    }

    /// `Ok` when `<dir>/<name>.txt` holds exactly `actual`.
    pub fn check(&self, name: &str, actual: &str) -> Result<(), String> {
        self.compare(&format!("{name}.txt"), actual)
            .map_err(|e| format!("golden `{name}`: {e}"))
    }

    /// `Ok` when `actual` is the current generation of the seed-bound
    /// golden `name`. Its generations are the files `<dir>/<name>/<n>.txt`;
    /// it fails when
    /// - the newest generation is older than `contract`: a bump needs a
    ///   new file, which the error asks to record;
    /// - a generation is newer than `contract`;
    /// - the current generation differs from `actual`: sampled bits moved
    ///   without a bump, or an output outside the contract changed;
    /// - some contract changes no golden of `dir`: each of its files
    ///   equals its golden's generation before it, so it broke nothing.
    pub fn check_seeded(&self, name: &str, contract: u32, actual: &str) -> Result<(), String> {
        self.every_contract_changes_a_golden()?;
        let current = format!("{name}/{contract}.txt");
        match generations(&self.dir.join(name)).last() {
            Some(&(newest, _)) if newest > contract => Err(format!(
                "`{name}/{newest}.txt` is ahead of SEED_CONTRACT {contract}"
            )),
            Some(&(newest, _)) if newest == contract => {
                self.compare(&current, actual).map_err(|e| {
                    format!(
                        "seed-bound golden `{current}`: {e}\nif sampled bits moved, bump \
                         `SEED_CONTRACT` and record `{name}/{}.txt` instead",
                        contract + 1
                    )
                })
            }
            _ => {
                let (dump, cp) = self.dump(&current, actual);
                Err(format!(
                    "record `{current}`: the actual is at {}\n  {cp}",
                    dump.display()
                ))
            }
        }
    }

    /// Compares `<dir>/<file>` with `actual`, dumping `actual` when they
    /// differ and removing an earlier dump when they do not.
    fn compare(&self, file: &str, actual: &str) -> Result<(), String> {
        let path = self.dir.join(file);
        let recorded = fs::read(&path).ok();
        if recorded.as_deref() == Some(actual.as_bytes()) {
            let _ = fs::remove_file(self.dump.join(file));
            return Ok(());
        }
        let what = match recorded {
            None => format!("{} is missing", path.display()),
            Some(bytes) => first_difference(&String::from_utf8_lossy(&bytes), actual),
        };
        let (dump, cp) = self.dump(file, actual);
        Err(format!(
            "{what}\nthe actual is at {}; to re-record it:\n  {cp}",
            dump.display()
        ))
    }

    /// Writes `actual` to the dump of `<dir>/<file>`; returns its path and
    /// the `cp` that records it.
    fn dump(&self, file: &str, actual: &str) -> (PathBuf, String) {
        let dump = self.dump.join(file);
        if let Some(parent) = dump.parent() {
            let _ = fs::create_dir_all(parent);
        }
        if let Err(e) = fs::write(&dump, actual) {
            panic!("cannot write {}: {e}", dump.display());
        }
        let cp = format!("cp {} {}", dump.display(), self.dir.join(file).display());
        (dump, cp)
    }

    /// Every contract some golden of `dir` was re-recorded under must
    /// change at least one of them.
    fn every_contract_changes_a_golden(&self) -> Result<(), String> {
        // contract -> whether some golden's file under it differs from
        // that golden's generation before it
        let mut changed = std::collections::BTreeMap::new();
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let history = generations(&entry.path());
            for pair in history.windows(2) {
                let (old, new) = (&pair[0], &pair[1]);
                *changed.entry(new.0).or_insert(false) |=
                    fs::read(&old.1).ok() != fs::read(&new.1).ok();
            }
        }
        match changed.into_iter().find(|&(_, moved)| !moved) {
            Some((n, _)) => Err(format!(
                "contract {n} changes no golden: every `*/{n}.txt` in {} equals the generation \
                 before it",
                self.dir.display()
            )),
            None => Ok(()),
        }
    }
}

/// The `<n>.txt` files of a seed-bound golden's directory, oldest first.
fn generations(dir: &Path) -> Vec<(u32, PathBuf)> {
    let mut out: Vec<(u32, PathBuf)> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            let n = name.to_str()?.strip_suffix(".txt")?.parse().ok()?;
            Some((n, entry.path()))
        })
        .collect();
    out.sort();
    out
}

/// The first line at which `recorded` and `actual` differ.
fn first_difference(recorded: &str, actual: &str) -> String {
    let (mut old, mut new) = (recorded.lines(), actual.lines());
    for line in 1.. {
        match (old.next(), new.next()) {
            (None, None) => break,
            (a, b) if a != b => {
                let show = |l: Option<&str>| l.map_or("<end of file>".into(), |l| format!("{l:?}"));
                return format!(
                    "line {line} differs\n  golden: {}\n  actual: {}",
                    show(a),
                    show(b)
                );
            }
            _ => {}
        }
    }
    "the lines are equal; the line endings differ".into()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh, empty golden directory and dump directory of its own.
    fn scratch(test: &str) -> Goldens {
        let root = std::env::temp_dir().join(format!("qclab-golden-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let g = Goldens {
            dir: root.join("tests/golden"),
            dump: root.join("tmp/golden"),
        };
        fs::create_dir_all(&g.dir).unwrap();
        g
    }

    fn record(g: &Goldens, file: &str, text: &str) {
        let path = g.dir.join(file);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, text).unwrap();
    }

    fn clean(g: Goldens) {
        let _ = fs::remove_dir_all(g.dir.parent().unwrap().parent().unwrap());
    }

    #[test]
    fn a_match_passes_and_removes_its_dump() {
        let g = scratch("match");
        record(&g, "out.txt", "a\nb\n");
        assert!(g.check("out", "a\nb\nc\n").is_err());
        assert!(g.dump.join("out.txt").exists());
        assert_eq!(g.check("out", "a\nb\n"), Ok(()));
        assert!(!g.dump.join("out.txt").exists());
        clean(g);
    }

    #[test]
    fn a_mismatch_dumps_the_actual_and_names_the_cp() {
        let g = scratch("mismatch");
        record(&g, "out.txt", "a\nb\nc\n");
        let e = g.check("out", "a\nB\nc\n").unwrap_err();
        let dump = g.dump.join("out.txt");
        assert_eq!(fs::read_to_string(&dump).unwrap(), "a\nB\nc\n");
        assert!(e.contains("line 2 differs"), "{e}");
        assert!(
            e.contains("golden: \"b\"") && e.contains("actual: \"B\""),
            "{e}"
        );
        let cp = format!("cp {} {}", dump.display(), g.dir.join("out.txt").display());
        assert!(e.contains(&cp), "{e}");
        // a missing golden is a mismatch too, and so is a missing newline
        assert!(g.check("new", "x\n").unwrap_err().contains("is missing"));
        let e = g.check("out", "a\nb\nc").unwrap_err();
        assert!(e.contains("line endings differ"), "{e}");
        clean(g);
    }

    #[test]
    fn the_current_generation_is_the_contract_s() {
        let g = scratch("current");
        record(&g, "runs/3.txt", "old\n");
        record(&g, "runs/4.txt", "new\n");
        assert_eq!(g.check_seeded("runs", 4, "new\n"), Ok(()));
        let e = g.check_seeded("runs", 4, "moved\n").unwrap_err();
        assert!(
            e.contains("bump `SEED_CONTRACT` and record `runs/5.txt`"),
            "{e}"
        );
        assert_eq!(
            fs::read_to_string(g.dump.join("runs/4.txt")).unwrap(),
            "moved\n"
        );
        clean(g);
    }

    #[test]
    fn a_bump_without_a_file_asks_for_one() {
        let g = scratch("bump");
        record(&g, "runs/4.txt", "same\n");
        let e = g.check_seeded("runs", 5, "same\n").unwrap_err();
        assert!(
            e.starts_with("record `runs/5.txt`: the actual is at "),
            "{e}"
        );
        let dump = g.dump.join("runs/5.txt");
        assert_eq!(fs::read_to_string(&dump).unwrap(), "same\n");
        assert!(e.contains(&format!("cp {} ", dump.display())), "{e}");
        // a golden with no generation yet asks for its first one
        let e = g.check_seeded("fresh", 5, "x\n").unwrap_err();
        assert!(e.starts_with("record `fresh/5.txt`"), "{e}");
        clean(g);
    }

    #[test]
    fn a_generation_ahead_of_the_contract_fails() {
        let g = scratch("ahead");
        record(&g, "runs/4.txt", "a\n");
        record(&g, "runs/5.txt", "b\n");
        let e = g.check_seeded("runs", 4, "a\n").unwrap_err();
        assert!(
            e.contains("`runs/5.txt` is ahead of SEED_CONTRACT 4"),
            "{e}"
        );
        clean(g);
    }

    #[test]
    fn a_contract_that_changes_no_golden_fails() {
        let g = scratch("unchanged");
        record(&g, "runs/4.txt", "a\n");
        record(&g, "runs/5.txt", "a\n");
        record(&g, "streams/5.txt", "s\n");
        let e = g.check_seeded("runs", 5, "a\n").unwrap_err();
        assert!(e.starts_with("contract 5 changes no golden"), "{e}");
        // the same file is fine once another golden moved under 5
        record(&g, "streams/4.txt", "t\n");
        assert_eq!(g.check_seeded("runs", 5, "a\n"), Ok(()));
        assert_eq!(g.check_seeded("streams", 5, "s\n"), Ok(()));
        clean(g);
    }
}
