//! Pins what the built `qclab` binary prints — stdout, stderr and the
//! exit code — for the benchmark's five circuits under every backend and
//! each one-shot command, against
//! `tests/golden/cli_goldens/<SEED_CONTRACT>.txt`.
//!
//! An output longer than [`VERBATIM_MAX`] bytes is pinned by its length
//! and FNV-1a digest, so the golden file stays readable.

use qclab_core::sim::trajectory::SEED_CONTRACT;
use qclab_testkit::seeded_golden;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

const INPUTS: [&str; 5] = ["grover2", "qec3", "qft16", "rep25", "teleport"];
const BACKENDS: [&str; 3] = ["dense", "auto", "sparse"];
const COMMANDS: [&[&str]; 6] = [
    &["sample", "1000", "--seed", "1"],
    &[
        "sample",
        "1000",
        "--seed",
        "1",
        "--measure-noise",
        "bitflip:0.01",
    ],
    &[
        "sample",
        "1000",
        "--seed",
        "1",
        "--noise",
        "depolarizing:0.002",
    ],
    &["simulate"],
    &["counts", "1000", "--seed", "7"],
    &["compile"],
];

/// Cases left out for their cost alone: in a debug build these six take
/// about nine tenths of the grid's time. The same commands stay pinned
/// on the sparse backend.
const SKIPPED: [(&str, &str, &str); 6] = [
    ("qft16", "dense", "simulate"),
    ("qft16", "dense", "counts"),
    ("qft16", "dense", "--noise"),
    ("qft16", "auto", "simulate"),
    ("qft16", "auto", "counts"),
    ("qft16", "auto", "--noise"),
];

const VERBATIM_MAX: usize = 4096;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn skipped(input: &str, backend: &str, args: &[&str]) -> bool {
    SKIPPED
        .iter()
        .any(|&(i, b, arg)| i == input && b == backend && args.contains(&arg))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn render_stream(out: &mut String, name: &str, bytes: &[u8]) {
    if bytes.len() > VERBATIM_MAX {
        let _ = writeln!(
            out,
            "--- {name}: {} bytes, fnv1a64 {:016x}",
            bytes.len(),
            fnv1a64(bytes)
        );
    } else {
        let _ = writeln!(out, "--- {name}");
        out.push_str(&String::from_utf8_lossy(bytes));
    }
}

/// One case's block: a `=== ` header naming the command line, the exit
/// code, then both streams.
fn run_case(input: &str, backend: &str, args: &[&str]) -> String {
    let path = format!("benchmark/inputs/{input}.qasm");
    let mut argv = vec![args[0], &path];
    argv.extend_from_slice(&args[1..]);
    argv.extend_from_slice(&["--backend", backend, "--max-qubits", "20"]);
    let out = Command::new(env!("CARGO_BIN_EXE_qclab"))
        .args(&argv)
        .current_dir(workspace_root())
        .output()
        .expect("binary must spawn");
    let mut block = format!(
        "=== qclab {}\nexit {:?}\n",
        argv.join(" "),
        out.status.code()
    );
    render_stream(&mut block, "stdout", &out.stdout);
    render_stream(&mut block, "stderr", &out.stderr);
    block
}

#[test]
fn benchmark_circuits_print_their_goldens() {
    let mut actual = Vec::new();
    for input in INPUTS {
        for backend in BACKENDS {
            for args in COMMANDS {
                if !skipped(input, backend, args) {
                    actual.push(run_case(input, backend, args));
                }
            }
        }
    }
    assert_eq!(actual.len(), 84);
    seeded_golden!("cli_goldens", SEED_CONTRACT, actual.concat());
}
