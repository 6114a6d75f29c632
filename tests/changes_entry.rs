//! CHANGES.md is the project's one narrative, and each entry is a
//! summary that points at EXPERIMENTS.md and the tests for detail: the
//! newest entry stays within [`CAP`] bytes.

/// The most bytes one `- **PR …` entry may hold.
const CAP: usize = 1536;

/// The entries of `text`: each runs from a line starting `- **PR` to the
/// next blank line, the next entry, or a `FOUND:`/`MENDED:` line, which
/// record faults and are not part of an entry.
fn entries(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut open = false;
    for line in text.lines() {
        if line.starts_with("- **PR") {
            out.push(line.to_string());
            open = true;
        } else if line.trim().is_empty()
            || line.starts_with("FOUND:")
            || line.starts_with("MENDED:")
        {
            open = false;
        } else if open {
            let entry = out.last_mut().expect("an open entry");
            entry.push('\n');
            entry.push_str(line);
        }
    }
    out
}

#[test]
fn the_newest_changes_entry_fits_its_cap() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/CHANGES.md");
    let text = std::fs::read_to_string(path).expect("CHANGES.md");
    let entries = entries(&text);
    let newest = entries.last().expect("at least one entry");
    assert!(
        newest.len() <= CAP,
        "the newest CHANGES.md entry is {} bytes, over the cap of {CAP}:\n{newest}",
        newest.len()
    );
}

#[test]
fn an_entry_ends_where_a_fault_line_begins() {
    let text = "- **PR 1 · a.** one\n  two\n\n- **PR 2 · b.** three\nFOUND: x\nMENDED: y\n";
    assert_eq!(
        entries(text),
        ["- **PR 1 · a.** one\n  two", "- **PR 2 · b.** three"]
    );
}
