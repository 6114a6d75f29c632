//! # qclab-bench
//!
//! Benchmark and experiment harness: every table and figure of the QCLAB
//! paper (and the implied QCLAB-vs-QCLAB++ performance comparison) is
//! regenerated by a binary in `src/bin/` — see DESIGN.md for the
//! experiment index and EXPERIMENTS.md for recorded results. Criterion
//! micro-benchmarks live in `benches/`.
//!
//! The helpers here keep the binaries small: aligned table printing,
//! JSON record emission, and simple wall-clock timing.

use std::time::Instant;

/// A printable experiment table that can also be dumped as JSON.
#[derive(Clone, Debug)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Serializes the table as pretty-printed JSON
    /// (`{"title", "headers", "rows"}`).
    pub fn to_json(&self) -> String {
        fn quote(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn string_array(items: &[String], indent: &str) -> String {
            let cells: Vec<String> = items.iter().map(|s| quote(s)).collect();
            format!("{indent}[{}]", cells.join(", "))
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| string_array(r, "      "))
            .collect();
        format!(
            "{{\n  \"title\": {},\n  \"headers\":\n{},\n  \"rows\": [\n{}\n  ]\n}}\n",
            quote(&self.title),
            string_array(&self.headers, "    "),
            rows.join(",\n"),
        )
    }

    /// Prints the table to stdout and writes a JSON record for machine
    /// consumption. The destination defaults to
    /// `target/experiments/<id>.json`; a `--json <path>` process
    /// argument overrides it, which is how CI pins the exact artifact
    /// name per figure binary.
    pub fn emit(&self, id: &str) {
        println!("{}", self.render());
        self.write_json(&record_path(id));
    }

    /// Writes the JSON record to `path`, creating parent directories.
    pub fn write_json(&self, path: &std::path::Path) {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() && std::fs::create_dir_all(dir).is_err() {
                return;
            }
        }
        let _ = std::fs::write(path, self.to_json());
    }
}

/// Where a binary's JSON record goes: the path following a `--json`
/// process argument if one was given, `target/experiments/<id>.json`
/// otherwise.
pub fn record_path(id: &str) -> std::path::PathBuf {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            if let Some(path) = args.next() {
                return path.into();
            }
        }
    }
    std::path::Path::new("target/experiments").join(format!("{id}.json"))
}

/// Wall-clock nanoseconds of `runs` executions of `f` (after one
/// warm-up run), ascending — for records that carry a median and its
/// spread as numbers.
pub fn sample_times_ns(runs: usize, mut f: impl FnMut()) -> Vec<u64> {
    assert!(runs > 0);
    f(); // warm-up
    let mut samples: Vec<u64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples
}

/// Median wall-clock seconds of `runs` executions of `f` (after one
/// warm-up run). Returns seconds per execution.
pub fn median_time(runs: usize, f: impl FnMut()) -> f64 {
    let samples = sample_times_ns(runs, f);
    samples[samples.len() / 2] as f64 * 1e-9
}

/// Formats seconds human-readably (ns/µs/ms/s).
pub fn fmt_seconds(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// A deterministic random-circuit generator used by benches and
/// cross-backend validation: `layers` layers of single-qubit rotations
/// followed by an entangling CNOT ladder.
pub fn random_circuit(nb_qubits: usize, layers: usize, seed: u64) -> qclab_core::QCircuit {
    use qclab_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = QCircuit::new(nb_qubits);
    for _ in 0..layers {
        for q in 0..nb_qubits {
            match rng.gen_range(0..4) {
                0 => c.push_back(RotationX::new(q, rng.gen_range(0.0..std::f64::consts::TAU))),
                1 => c.push_back(RotationY::new(q, rng.gen_range(0.0..std::f64::consts::TAU))),
                2 => c.push_back(RotationZ::new(q, rng.gen_range(0.0..std::f64::consts::TAU))),
                _ => c.push_back(Hadamard::new(q)),
            };
        }
        for q in 0..nb_qubits.saturating_sub(1) {
            if rng.gen_bool(0.7) {
                c.push_back(CNOT::new(q, q + 1));
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_alignment() {
        let mut t = Table::new("demo", &["n", "time"]);
        t.row(&["4".into(), "1.0 ms".into()]);
        t.row(&["16".into(), "250.0 ms".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header and rows share column offsets
        let header_time = lines[1].find("time").unwrap();
        let row_time = lines[3].find("1.0 ms").unwrap();
        assert_eq!(header_time, row_time);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn write_json_creates_parents_and_round_trips_title() {
        let mut t = Table::new("json demo", &["k", "v"]);
        t.row(&["a".into(), "b".into()]);
        let dir = std::env::temp_dir().join("qclab_bench_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("BENCH_demo.json");
        t.write_json(&path);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"title\": \"json demo\""));
        assert!(body.contains("\"rows\""));
    }

    #[test]
    fn median_time_is_positive() {
        let t = median_time(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }

    #[test]
    fn fmt_seconds_scales() {
        assert!(fmt_seconds(2e-9).ends_with("ns"));
        assert!(fmt_seconds(2e-6).ends_with("µs"));
        assert!(fmt_seconds(2e-3).ends_with("ms"));
        assert!(fmt_seconds(2.0).ends_with("s"));
    }

    #[test]
    fn random_circuit_is_deterministic_and_valid() {
        let a = random_circuit(5, 3, 42);
        let b = random_circuit(5, 3, 42);
        assert_eq!(a.nb_gates(), b.nb_gates());
        let c = random_circuit(5, 3, 43);
        // different seed gives a different circuit (overwhelmingly likely)
        assert!(a != c || a.nb_gates() != c.nb_gates());
        // simulates without error and stays normalized
        let sim = a.simulate_bitstring("00000").unwrap();
        assert!((sim.states()[0].norm() - 1.0).abs() < 1e-10);
    }
}
