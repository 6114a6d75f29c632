//! Drives the built `qclab` binary with bad (and good) inputs and pins
//! down the error contract: messages on stderr, nothing on stdout, and
//! one distinct exit code per failure class.

use std::path::PathBuf;
use std::process::{Command, Output};

const EXIT_USAGE: i32 = 2;
const EXIT_IO: i32 = 3;
const EXIT_PARSE: i32 = 4;
const EXIT_SIM: i32 = 5;
const EXIT_RESOURCE: i32 = 6;
const EXIT_TIMEOUT: i32 = 7;

fn qclab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qclab"))
        .args(args)
        .output()
        .expect("binary must spawn")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Writes `src` to a file of its own: tests run on parallel threads, so
/// no two calls may share a path (process id + counter).
fn write_qasm(name: &str, src: &str) -> String {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("qclab_cli_errors");
    std::fs::create_dir_all(&dir).unwrap();
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let path: PathBuf = dir.join(format!("{}_{unique}_{name}", std::process::id()));
    std::fs::write(&path, src).unwrap();
    path.to_str().unwrap().to_string()
}

fn bell() -> String {
    write_qasm(
        "bell.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
         h q[0];\ncx q[0], q[1];\nmeasure q -> c;\n",
    )
}

/// Asserts the error contract: the given exit code, a stderr message
/// containing `needle`, and an empty stdout.
fn assert_fails(args: &[&str], code: i32, needle: &str) {
    let out = qclab(args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "args {args:?}: stderr was: {}",
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(err.contains(needle), "args {args:?}: stderr was: {err}");
    assert_eq!(stdout(&out), "", "errors must not pollute stdout");
}

#[test]
fn no_arguments_is_a_usage_error() {
    assert_fails(&[], EXIT_USAGE, "usage:");
}

#[test]
fn unknown_command_and_options_are_usage_errors() {
    assert_fails(&["frobnicate", "f.qasm"], EXIT_USAGE, "unknown command");
    // the command is named before its arguments are looked at
    assert_fails(&["bogus"], EXIT_USAGE, "unknown command 'bogus'");
    assert_fails(
        &["simulate", "--bogus", "f.qasm"],
        EXIT_USAGE,
        "unknown option '--bogus'",
    );
    assert_fails(&["counts", "f.qasm"], EXIT_USAGE, "missing shot count");
    assert_fails(
        &["draw", "--seed", "1", "f.qasm"],
        EXIT_USAGE,
        "does not apply",
    );
}

#[test]
fn help_is_a_result_on_stdout() {
    let bell = bell();
    for args in [
        &["--help"][..],
        &["-h"],
        &["help"],
        &["sample", "--help"],
        &["serve", "-h"],
        &["counts", &bell, "10", "--help"],
    ] {
        let out = qclab(args);
        assert_eq!(out.status.code(), Some(0), "args {args:?}");
        assert_eq!(stderr(&out), "", "args {args:?}");
        let text = stdout(&out);
        assert!(text.starts_with("usage: qclab "), "args {args:?}: {text}");
        assert!(text.contains("\n  --timeout-ms "), "args {args:?}: {text}");
    }
    // a usage error prints the same text, on stderr
    let help = stdout(&qclab(&["--help"]));
    let out = qclab(&[]);
    assert_eq!(stderr(&out), format!("qclab: missing command\n{help}"));
}

#[test]
fn a_flag_given_twice_is_a_usage_error() {
    let bell = bell();
    // the parent ran this silently with seed 4
    assert_fails(
        &["sample", &bell, "10", "--seed", "3", "--seed", "4"],
        EXIT_USAGE,
        "--seed given more than once",
    );
    // switches as well as value flags, `serve` as well as the one-shots
    assert_fails(
        &["simulate", "--no-simd", &bell, "--no-simd"],
        EXIT_USAGE,
        "--no-simd given more than once",
    );
    assert_fails(
        &["serve", "--workers", "1", "--workers", "1"],
        EXIT_USAGE,
        "--workers given more than once",
    );
}

#[test]
fn a_stray_positional_argument_is_a_usage_error() {
    let bell = bell();
    // the parent ran each of these with the stray words dropped
    for (args, stray) in [
        (&["draw", &bell, "77"][..], "77"),
        (&["tex", &bell, "x"], "x"),
        (&["simulate", &bell, "00", "x"], "x"),
        (&["counts", &bell, "10", "20"], "20"),
        (&["sample", &bell, "10", "--seed", "1", "20"], "20"),
        (&["compile", &bell, "1000"], "1000"),
        (&["stats", &bell, "5", "x"], "5"),
    ] {
        let needle = format!("unexpected argument '{stray}' for '{}'", args[0]);
        assert_fails(args, EXIT_USAGE, &needle);
    }
}

#[test]
fn bad_noise_specs_are_usage_errors() {
    let bell = bell();
    assert_fails(
        &["sample", &bell, "10", "--noise", "gamma:0.1"],
        EXIT_USAGE,
        "unknown noise channel",
    );
    assert_fails(
        &["sample", &bell, "10", "--noise", "bitflip"],
        EXIT_USAGE,
        "must look like",
    );
    // a probability outside [0, 1] is structurally valid but rejected
    // by channel validation
    assert_fails(
        &["sample", &bell, "10", "--noise", "bitflip:1.5"],
        EXIT_USAGE,
        "invalid noise spec",
    );
}

#[test]
fn missing_file_is_an_io_error() {
    assert_fails(
        &["stats", "/nonexistent/no_such.qasm"],
        EXIT_IO,
        "cannot read",
    );
}

#[test]
fn malformed_qasm_is_a_parse_error() {
    let bad = write_qasm("bad.qasm", "qreg q[1]; frobnicate q[0];");
    assert_fails(&["stats", &bad], EXIT_PARSE, "frobnicate");
    // pathological nesting must error, not crash the process
    let deep = write_qasm(
        "deep.qasm",
        &format!(
            "qreg q[1];\nrx({}0.5{}) q[0];\n",
            "(".repeat(20_000),
            ")".repeat(20_000)
        ),
    );
    assert_fails(&["stats", &deep], EXIT_PARSE, "nesting too deep");
}

#[test]
fn bad_initial_bitstring_is_a_simulation_error() {
    let bell = bell();
    assert_fails(&["simulate", &bell, "01x"], EXIT_SIM, "bitstring");
}

#[test]
fn oversized_register_is_a_resource_error() {
    // 80 qubits can never be allocated; the guard must refuse before
    // touching memory, quickly and with a helpful message
    let big = write_qasm("big.qasm", "qreg q[80];\nh q[0];\n");
    assert_fails(&["simulate", &big], EXIT_RESOURCE, "80-qubit");
    // and the explicit cap rejects circuits above it
    assert_fails(
        &["simulate", "--max-qubits", "1", &bell()],
        EXIT_RESOURCE,
        "--max-qubits",
    );
}

/// A measurement split that would outgrow the byte cap is refused
/// before it allocates: 16 measured qubits in |+⟩ would branch into
/// 2^16 states of 1 MiB each. The branches admitted up to the refusal
/// hold the whole default cap (4 GiB), so the two commands run one after
/// the other.
#[test]
fn a_branch_split_past_the_byte_cap_is_a_resource_error() {
    let wide = write_qasm(
        "wide.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[16];\ncreg c[16];\n\
         h q;\nmeasure q -> c;\n",
    );
    assert_fails(&["simulate", &wide], EXIT_RESOURCE, "resource limit");
    assert_fails(&["counts", &wide, "10"], EXIT_RESOURCE, "resource limit");
}

#[test]
fn successful_runs_exit_zero_with_clean_stderr() {
    let bell = bell();
    for args in [
        vec!["stats", bell.as_str()],
        vec!["simulate", "--no-simd", bell.as_str()],
        vec!["counts", bell.as_str(), "25", "--seed", "3"],
        vec![
            "sample",
            bell.as_str(),
            "25",
            "--seed",
            "3",
            "--noise",
            "depolarizing:0.02",
        ],
    ] {
        let out = qclab(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "args {args:?}: {}",
            stderr(&out)
        );
        assert_eq!(stderr(&out), "", "success must not write to stderr");
        assert!(!stdout(&out).is_empty());
    }
}

#[test]
fn compile_honors_the_full_exit_code_contract() {
    // 2 — usage: a sampling flag has no meaning for compile
    assert_fails(
        &["compile", "--seed", "1", &bell()],
        EXIT_USAGE,
        "does not apply",
    );
    // 3 — io: missing file
    assert_fails(
        &["compile", "/nonexistent/no_such.qasm"],
        EXIT_IO,
        "cannot read",
    );
    // 4 — parse: malformed QASM
    let bad = write_qasm("bad_compile.qasm", "qreg q[1]; frobnicate q[0];");
    assert_fails(&["compile", &bad], EXIT_PARSE, "frobnicate");
    // a guard's refusal is not compile's: the report shows it on the
    // route it refuses, the one `sample` would exit 6 with
    let bell = bell();
    assert_fails(
        &["sample", "--max-qubits", "1", &bell, "10"],
        EXIT_RESOURCE,
        "--max-qubits",
    );
    let out = qclab(&["compile", "--max-qubits", "1", &bell]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        route_row(&stdout(&out), "noiseless").contains("refused: a 2-qubit state needs"),
        "{}",
        stdout(&out)
    );
    // and the happy path prints the plan on stdout only
    let out = qclab(&["compile", &bell]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stderr(&out), "");
    let text = stdout(&out);
    assert!(text.contains("fingerprint"), "{text}");
    assert!(text.contains("fused block"), "{text}");
    assert!(text.contains("schedule:"), "{text}");
}

/// A 2-qubit circuit of 100 gates.
fn long_chain() -> String {
    let mut src = String::from("qreg q[2];\ncreg c[2];\n");
    for i in 0..50 {
        src.push_str(&format!("h q[{}];\ncx q[0], q[1];\n", i % 2));
    }
    src.push_str("measure q -> c;\n");
    write_qasm("chain.qasm", &src)
}

/// An 18-qubit circuit of 600 gates. Fusion leaves 200 blocks — the
/// deadline is checked every 64 ops — and one check interval on a 4 MiB
/// state costs far more than a millisecond. The T gates keep a noisy
/// `sample` on the state-vector engine (the circuit is not Clifford).
fn heavy_chain() -> String {
    let mut src = String::from("qreg q[18];\ncreg c[18];\n");
    for i in 0..200 {
        let (a, b) = (i % 18, (i + 1) % 18);
        src.push_str(&format!("h q[{a}];\nt q[{a}];\ncx q[{a}], q[{b}];\n"));
    }
    src.push_str("measure q -> c;\n");
    write_qasm("heavy_chain.qasm", &src)
}

#[test]
fn zero_timeout_is_a_usage_error_not_a_timeout() {
    // an already-expired deadline is a bad invocation: reject it with
    // the usage code instead of dressing it up as a timeout (exit 7)
    let chain = long_chain();
    for args in [
        vec!["simulate", "--timeout-ms", "0", chain.as_str()],
        vec!["counts", "--timeout-ms", "0", chain.as_str(), "10"],
        vec!["sample", "--timeout-ms", "0", chain.as_str(), "10"],
    ] {
        assert_fails(&args, EXIT_USAGE, "--timeout-ms must be at least 1");
    }
}

#[test]
fn exceeded_deadline_is_a_timeout_error() {
    // a 1 ms deadline on the 18-qubit chain expires before the first
    // interval check completes, on any machine this test runs on
    let chain = heavy_chain();
    assert_fails(
        &["simulate", "--timeout-ms", "1", &chain],
        EXIT_TIMEOUT,
        "deadline exceeded",
    );
    // a generous deadline is invisible: same bytes as the untimed run
    let small = long_chain();
    let timed = qclab(&["simulate", &small, "--timeout-ms", "3600000"]);
    let untimed = qclab(&["simulate", &small]);
    assert_eq!(timed.status.code(), Some(0), "{}", stderr(&timed));
    assert_eq!(stdout(&timed), stdout(&untimed));
}

#[test]
fn timed_out_sample_reports_partial_results_on_stdout() {
    // under noise every shot evolves its own 18-qubit state, and one
    // costs far more than the 1 ms deadline: the run stops after at most
    // a shot or two and reports the rest as missing; the exact count
    // depends on where the deadline lands
    let out = qclab(&[
        "sample",
        &heavy_chain(),
        "20",
        "--noise",
        "depolarizing:0.01",
        "--timeout-ms",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_TIMEOUT), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("sample stopped early"), "stderr: {err}");
    assert!(err.contains("/20 shots completed"), "stderr: {err}");
    let json = stdout(&out);
    assert!(json.contains("\"partial\":true"), "stdout: {json}");
    assert!(
        json.contains("\"cause\":\"deadline exceeded\""),
        "stdout: {json}"
    );
    assert!(json.contains("\"shots_requested\":20"), "stdout: {json}");
    assert!(json.contains("\"shots_completed\":"), "stdout: {json}");
}

#[test]
fn a_noisy_shot_count_no_machine_can_hold_times_out_instead_of_aborting() {
    // 10^11 noisy shots: a slot per shot would be terabytes (this died
    // with `memory allocation of … bytes failed`, exit 134). Batches are
    // tallied as they finish, so memory does not grow with the shot
    // count and the deadline decides — on the frame engine (Bell) and on
    // the state-vector engine (a T gate: not Clifford). A batch as wide
    // as the shot count is `tests/execution_control.rs::
    // a_batch_as_wide_as_an_unholdable_shot_count_times_out_too`
    let bell_t = write_qasm(
        "bell_t.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
         h q[0];\nt q[0];\ncx q[0], q[1];\nmeasure q -> c;\n",
    );
    let shots = "100000000000";
    for (file, path) in [(bell(), "pauli-frame"), (bell_t, "per-shot")] {
        // the engine each file reaches, from a run that finishes
        let small = qclab(&["sample", &file, "10", "--noise", "bitflip:0.01"]);
        assert!(
            stdout(&small).contains(&format!("path: {path}")),
            "{}",
            stdout(&small)
        );
        let args = ["--noise", "bitflip:0.01", "--timeout-ms", "200"];
        let out = qclab(&[&["sample", &file, shots], &args[..]].concat());
        assert_eq!(out.status.code(), Some(EXIT_TIMEOUT), "{}", stderr(&out));
        let json = stdout(&out);
        assert!(json.contains("\"partial\":true"), "stdout: {json}");
        assert!(
            json.contains(&format!("\"shots_requested\":{shots}")),
            "stdout: {json}"
        );
        // partial counts: some shots were tallied, far from all
        assert!(!json.contains("\"shots_completed\":0,"), "stdout: {json}");
        assert!(json.contains("\"counts\":{\"00\":"), "stdout: {json}");
    }
}

#[test]
fn timeout_flag_is_rejected_where_meaningless() {
    assert_fails(
        &["draw", "--timeout-ms", "5", &bell()],
        EXIT_USAGE,
        "does not apply",
    );
    assert_fails(
        &["simulate", "--timeout-ms", "soon", &bell()],
        EXIT_USAGE,
        "not a millisecond count",
    );
}

#[test]
fn retired_flags_are_unknown_on_every_command() {
    let bell = bell();
    // the interpreter's switch, `serve`'s three coalescing switches, and
    // (PR 20) the five ablation switches whose figures recorded their
    // verdict — spelled in two halves so a grep for a flag finds no live
    // use. What the five selected is still there as library fields, and
    // what their CLI legs checked is checked on those: output identical
    // at any batch width and with the fast path off by
    // `tests/noise_walk.rs::dense_results_do_not_depend_on_width_fan_out_threads_or_fast_path`
    // and `tests/seed_goldens.rs::shot_paths_reproduce_their_seed_goldens`,
    // the frame opt-out's `per-shot` path label by
    // `tests/frame_equivalence.rs::frames_opt_out_falls_back_to_the_trajectory_engine`,
    // fusion and the locality pass off by `tests/backend_equivalence.rs`
    // and `tests/remap_equivalence.rs`
    for retired in [
        concat!("--no-", "bytecode"),
        concat!("--window", "-ms"),
        concat!("--max", "-batch"),
        concat!("--no-", "coalesce"),
        concat!("--no-", "fast-path"),
        concat!("--no-", "frames"),
        concat!("--shot", "-batch"),
        concat!("--no-", "remap"),
        concat!("--no-", "fuse"),
    ] {
        for cmd in [
            "draw", "tex", "simulate", "counts", "sample", "compile", "stats", "serve",
        ] {
            assert_fails(
                &[cmd, retired, &bell, "10"],
                EXIT_USAGE,
                &format!("unknown option '{retired}'"),
            );
        }
    }
}

#[test]
fn noisy_clifford_samples_take_the_frame_path_and_compile_says_so() {
    let bell = bell();
    // a noisy Clifford sample reports the frame path
    let framed = qclab(&[
        "sample",
        &bell,
        "200",
        "--seed",
        "9",
        "--noise",
        "depolarizing:0.05",
    ]);
    assert_eq!(framed.status.code(), Some(0), "{}", stderr(&framed));
    assert!(
        stdout(&framed).contains("path: pauli-frame"),
        "stdout: {}",
        stdout(&framed)
    );
    // the compile report names that path on both noisy routes
    let report = qclab(&["compile", &bell]);
    assert_eq!(report.status.code(), Some(0), "{}", stderr(&report));
    let text = stdout(&report);
    assert!(
        route_row(&text, "readout noise").starts_with("pauli-frame ["),
        "{text}"
    );
    assert!(
        route_row(&text, "gate noise").starts_with("pauli-frame ["),
        "{text}"
    );
    // and, under them, what a shot's noise walk ranges over: H + CX on
    // two qubits touch 3 sites and leave 1 idle, two measurements read out
    assert!(
        text.contains("]\n  noise sites:  3 after-gate, 1 idle, 2 readout\n"),
        "{text}"
    );
}

#[test]
fn compile_reports_the_noise_sites_of_a_shot() {
    // the benchmark's d = 25 repetition code: 24 CNOTs touch 48 sites
    // and idle 24 × 23, every data qubit is read out
    let rep25 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../benchmark/inputs/rep25.qasm"
    );
    let report = qclab(&["compile", rep25]);
    assert_eq!(report.status.code(), Some(0), "{}", stderr(&report));
    let text = stdout(&report);
    assert!(
        text.contains("  noise sites:  48 after-gate, 552 idle, 25 readout\n"),
        "{text}"
    );
    // a non-Clifford file: a noisy run executes the plan the report
    // prints, and its sites are counted on the source gates (the fused
    // schedule has fewer); a reset is a readout site
    let t = write_qasm(
        "sites_t.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
         h q[0];\nt q[0];\ncx q[0], q[2];\nreset q[1];\nmeasure q -> c;\n",
    );
    let report = qclab(&["compile", &t]);
    assert_eq!(report.status.code(), Some(0), "{}", stderr(&report));
    let text = stdout(&report);
    assert!(
        route_row(&text, "gate noise").starts_with("per-shot ["),
        "{text}"
    );
    assert!(
        text.contains("  noise sites:  4 after-gate, 5 idle, 4 readout\n"),
        "{text}"
    );
}

/// The value of `compile`'s `route, <class>:` row.
fn route_row<'a>(report: &'a str, class: &str) -> &'a str {
    let label = format!("  route, {class}: ");
    report
        .lines()
        .find_map(|line| line.strip_prefix(label.as_str()))
        .unwrap_or_else(|| panic!("no {label:?} row in:\n{report}"))
}

#[test]
fn compile_prints_the_route_sample_takes() {
    // every benchmark input under every backend request and each noise
    // class `compile` reports: the row is the `path: …` that `sample`
    // prints — before the rule in brackets — or, where `sample` fails,
    // `refused: ` and the message it exits with
    let inputs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/inputs");
    let classes: [(&str, &[&str]); 3] = [
        ("noiseless", &[]),
        ("readout noise", &["--measure-noise", "bitflip:0.01"]),
        ("gate noise", &["--noise", "depolarizing:0.01"]),
    ];
    let mut cases = 0;
    for name in ["teleport", "grover2", "qec3", "qft16", "rep25"] {
        let file = format!("{inputs}/{name}.qasm");
        for backend in ["dense", "auto", "sparse"] {
            let report = qclab(&["compile", &file, "--backend", backend]);
            assert_eq!(report.status.code(), Some(0), "{}", stderr(&report));
            let report = stdout(&report);
            for (class, noise) in classes {
                let line = [&["sample", &file, "8", "--backend", backend], noise].concat();
                let sampled = qclab(&line);
                let row = route_row(&report, class);
                let case = format!("{name} --backend {backend}, {class}");
                if sampled.status.success() {
                    let out = stdout(&sampled);
                    let path = out
                        .split_once("path: ")
                        .and_then(|(_, rest)| rest.split_once("):\n"))
                        .map(|(path, _)| path)
                        .unwrap_or_else(|| panic!("{case}: no path in {out}"));
                    assert_eq!(row.split_once(" [").map(|r| r.0), Some(path), "{case}");
                } else {
                    let err = stderr(&sampled);
                    let msg = err.strip_prefix("qclab: ").unwrap_or(&err).trim_end();
                    assert_eq!(row, format!("refused: {msg}"), "{case}");
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 45);
}

#[test]
fn simulate_and_counts_print_one_branch_tree_on_both_backends() {
    // every benchmark input both engines finish quickly: the same branch
    // lines under `--backend dense` and `--backend sparse` (the header
    // names the backend, so it is cut)
    let inputs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/inputs");
    for name in ["teleport", "grover2", "qec3"] {
        let file = format!("{inputs}/{name}.qasm");
        for command in [
            &["simulate", &file][..],
            &["counts", &file, "1000", "--seed", "7"],
        ] {
            let body = |backend| {
                let out = qclab(&[command, &["--backend", backend]].concat());
                assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
                let out = stdout(&out);
                let (_, body) = out.split_once('\n').expect("a header line");
                assert!(!body.is_empty(), "{name} {command:?}: no branch lines");
                body.to_string()
            };
            assert_eq!(body("dense"), body("sparse"), "{name} {command:?}");
        }
    }
}

#[test]
fn compile_prints_the_terminal_draw() {
    // the noiseless route's draw at the default shot count, as a
    // one-shot `sample` takes it: a table its points outweigh (grover2,
    // 4 outcomes), streamed where no later run could draw from the table
    // (qft16, 2^16 outcomes; 18 measured qubits), none without a
    // terminal block; qft16's below the parallel threshold reads its
    // bit-reversal relabels in place instead of paying the restore
    let draw_row = |file: &str| {
        let out = qclab(&["compile", file]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let report = stdout(&out);
        report
            .lines()
            .find_map(|line| line.strip_prefix("  terminal draw: "))
            .unwrap_or_else(|| panic!("no terminal draw row in:\n{report}"))
            .to_string()
    };
    let inputs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/inputs");
    assert_eq!(
        draw_row(&format!("{inputs}/qft16.qasm")),
        "streamed, in place (no restore)"
    );
    assert_eq!(draw_row(&format!("{inputs}/grover2.qasm")), "table 32 B");
    assert_eq!(draw_row(&format!("{inputs}/teleport.qasm")), "none");
    let wide = write_qasm(
        "draw18.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[18];\ncreg c[18];\nh q;\nmeasure q -> c;\n",
    );
    assert_eq!(draw_row(&wide), "streamed");
    // and `sample` names the same path it always did
    let sampled = qclab(&["sample", &wide, "1000"]);
    assert_eq!(sampled.status.code(), Some(0), "{}", stderr(&sampled));
    assert!(
        stdout(&sampled).contains("path: alias-sampled (prefix"),
        "{}",
        stdout(&sampled)
    );
}

#[test]
fn compile_lowers_each_plan_once() {
    // the misses of one `compile` process, as its `plan cache:` row
    // reports them: the counts of the cache that kept every plan, so a
    // route row that drops a plan and asks for it again shows here
    let inputs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/inputs");
    let expected = [
        ("teleport", [2, 2, 2]),
        ("grover2", [2, 2, 2]),
        ("qec3", [1, 2, 2]),
        ("qft16", [1, 2, 2]),
        ("rep25", [2, 2, 2]),
    ];
    for (name, misses) in expected {
        let file = format!("{inputs}/{name}.qasm");
        for (backend, want) in ["dense", "auto", "sparse"].into_iter().zip(misses) {
            let out = qclab(&["compile", &file, "--backend", backend]);
            assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
            let report = stdout(&out);
            let row = report
                .lines()
                .find_map(|line| line.strip_prefix("  plan cache:   "))
                .unwrap_or_else(|| panic!("no plan cache row in:\n{report}"));
            let got = row
                .split(", ")
                .nth(1)
                .and_then(|m| m.strip_suffix(" miss(es)"));
            assert_eq!(
                got,
                Some(want.to_string().as_str()),
                "{name} --backend {backend}: {row}"
            );
        }
    }
}

#[test]
fn panics_in_dispatch_become_a_clean_sim_error() {
    // the injected panic proves the containment wrapper: a bug report
    // message on stderr and the simulation-failure exit code, no abort
    let out = Command::new(env!("CARGO_BIN_EXE_qclab"))
        .args(["stats", &bell()])
        .env("QCLAB_INJECT_PANIC", "1")
        .output()
        .expect("binary must spawn");
    assert_eq!(out.status.code(), Some(EXIT_SIM), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("internal error"), "stderr: {err}");
    assert!(err.contains("report"), "stderr: {err}");
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_the_run_cleanly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // 12 uniform qubits sampled 100 000 times print all 4 096 outcomes,
    // about 120 KB: more than a pipe holds, so the write meets the
    // closed end (`qclab sample … | head -1`)
    let all_h = write_qasm(
        "all_h.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[12];\ncreg c[12];\n\
         h q;\nmeasure q -> c;\n",
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_qclab"))
        .args(["sample", &all_h, "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary must spawn");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("sampled 100000"), "first line: {first}");
    let out = child.wait_with_output().unwrap();
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
}

#[test]
fn sample_is_deterministic_in_the_seed() {
    let bell = bell();
    let a = qclab(&[
        "sample",
        &bell,
        "100",
        "--seed",
        "7",
        "--noise",
        "bitflip:0.1",
    ]);
    let b = qclab(&[
        "sample",
        &bell,
        "100",
        "--seed",
        "7",
        "--noise",
        "bitflip:0.1",
    ]);
    let c = qclab(&[
        "sample",
        &bell,
        "100",
        "--seed",
        "8",
        "--noise",
        "bitflip:0.1",
    ]);
    assert_eq!(stdout(&a), stdout(&b));
    assert_ne!(stdout(&a), stdout(&c));
}

#[test]
fn a_zero_probability_channel_is_a_noiseless_run() {
    // routing reads what the noise walk reads: a channel that cannot
    // fire is not configured, so the run is the plain one, bit for bit
    // (the parent reported `per-shot` and `forked` here)
    let t = write_qasm(
        "zero_noise_t.qasm",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
         h q[0];\nt q[0];\ncx q[0], q[1];\nmeasure q -> c;\n",
    );
    let plain = qclab(&["sample", &t, "20"]);
    assert_eq!(plain.status.code(), Some(0), "{}", stderr(&plain));
    assert!(
        stdout(&plain).contains("path: alias-sampled"),
        "{}",
        stdout(&plain)
    );
    for flag in ["--noise", "--idle-noise", "--measure-noise"] {
        for channel in ["depolarizing:0", "bitflip:0", "phaseflip:0.0"] {
            let never = qclab(&["sample", &t, "20", flag, channel]);
            assert_eq!(never.status.code(), Some(0), "{}", stderr(&never));
            assert_eq!(stdout(&never), stdout(&plain), "{flag} {channel}");
        }
    }
}

/// The `counts` object `qclab sample` prints, in the wire's spelling
/// (`"000":72,"010":15`).
fn sample_counts_as_wire(file: &str, shots: &str, seed: &str) -> String {
    let out = qclab(&["sample", file, shots, "--seed", seed]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let counts: Vec<String> = stdout(&out)
        .lines()
        .filter_map(|line| {
            let (record, rest) = line.trim_start().strip_prefix('\'')?.split_once("': ")?;
            Some(format!("\"{record}\":{}", rest.split_whitespace().next()?))
        })
        .collect();
    assert!(!counts.is_empty(), "no counts in: {}", stdout(&out));
    counts.join(",")
}

#[test]
fn serve_resubmits_draw_the_same_bits_as_standalone_samples() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;
    let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n\
               h q[0];\nry(0.7) q[1];\ncx q[0], q[2];\nmeasure q -> c;\n";
    // structurally the same circuit, textually another
    let spaced = src.replace("h q[0];", "h  q[0];");
    let file = write_qasm("resubmit.qasm", src);
    let wire_text = |text: &str| text.replace('\n', "\\n").replace('"', "\\\"");
    let jobs = [
        ("j0", src, "41"),
        ("j1", src, "41"),
        ("j2", src, "42"),
        ("j3", spaced.as_str(), "41"),
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_qclab"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary must spawn");
    let mut stdin = child.stdin.take().unwrap();
    let mut replies = BufReader::new(child.stdout.take().unwrap());
    let mut lines = Vec::new();
    // one job at a time: each runs after the one before has resolved,
    // so `prep_hit` says what the plan supplied
    for (id, text, seed) in jobs {
        writeln!(
            stdin,
            "{{\"id\":\"{id}\",\"qasm\":\"{}\",\"shots\":300,\"seed\":{seed}}}",
            wire_text(text)
        )
        .unwrap();
        stdin.flush().unwrap();
        let mut line = String::new();
        replies.read_line(&mut line).unwrap();
        assert!(
            line.contains(&format!("\"id\":\"{id}\",\"ok\":true")),
            "{line}"
        );
        lines.push(line);
    }
    // end of input: the summary follows the last reply
    drop(stdin);
    let mut summary = String::new();
    std::io::Read::read_to_string(&mut replies, &mut summary).unwrap();
    assert_eq!(child.wait().unwrap().code(), Some(0));

    let counts_of = |line: &str| {
        let from = line.find("\"counts\":{").expect("counts object") + "\"counts\":{".len();
        line[from..from + line[from..].find('}').unwrap()].to_string()
    };
    let counts: Vec<String> = lines.iter().map(|l| counts_of(l)).collect();
    assert_eq!(counts[0], counts[1], "same seed, same bits");
    assert_ne!(counts[0], counts[2], "another seed, other bits");
    assert_eq!(counts[3], counts[0], "the text is not part of the seed");
    assert_eq!(counts[0], sample_counts_as_wire(&file, "300", "41"));
    assert_eq!(counts[2], sample_counts_as_wire(&file, "300", "42"));
    // the first job's plan and parse are not kept, the second's are: the
    // first two jobs prepare, and every later one — the respelled text
    // included: its parse is new, its plan is not — finds that on the plan
    let prep_hits: Vec<bool> = lines
        .iter()
        .map(|l| l.contains("\"prep_hit\":true"))
        .collect();
    assert_eq!(prep_hits, [false, false, true, true]);
    assert!(
        summary.contains("retained preparation 2 hit(s), 2 miss(es)"),
        "{summary}"
    );
    assert!(
        summary.contains("source memo 1 hit(s), 3 miss(es)"),
        "{summary}"
    );

    // all three lines piped at once to one worker, by file: seeds 7, 7,
    // 8 on one circuit run one after the other, and only the third job
    // finds the preparation on the plan — the first job's plan is not
    // kept, so the second prepares again and keeps it
    let triple = write_qasm(
        "triple.qasm",
        "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;\n",
    );
    let input: String = [("a", 7), ("b", 7), ("c", 8)]
        .iter()
        .map(|(id, seed)| {
            format!("{{\"id\":\"{id}\",\"file\":\"{triple}\",\"shots\":1000,\"seed\":{seed}}}\n")
        })
        .collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_qclab"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary must spawn");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let out = stdout(&out);
    let line = |id: &str| {
        let needle = format!("\"id\":\"{id}\",\"ok\":true");
        out.lines()
            .find(|l| l.contains(&needle))
            .unwrap_or_else(|| panic!("no {id} result in:\n{out}"))
    };
    assert_eq!(
        counts_of(line("a")),
        counts_of(line("b")),
        "same seed, same bits"
    );
    assert_ne!(
        counts_of(line("a")),
        counts_of(line("c")),
        "another seed, other bits"
    );
    let prep_hits = ["a", "b", "c"].map(|id| line(id).contains("\"prep_hit\":true"));
    assert_eq!(prep_hits, [false, false, true]);
    assert!(
        out.contains("retained preparation 1 hit(s), 2 miss(es)"),
        "{out}"
    );
}

/// `qclab serve` on stdin with a duplicate pair and a malformed job: both
/// good jobs succeed, one on the other's plan (`dedup_hit`), the bad job
/// resolves as a qasm-parse error line of its own (code 4), and the
/// server exits zero — a bad job never kills the server.
#[test]
fn a_bad_served_job_is_an_error_line_and_the_server_exits_zero() {
    use std::io::Write;
    use std::process::Stdio;
    let bell = write_qasm(
        "smoke.qasm",
        "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q -> c;\n",
    );
    let input = format!(
        "{{\"id\":\"a\",\"file\":\"{bell}\",\"shots\":100,\"seed\":7}}\n\
         {{\"id\":\"b\",\"file\":\"{bell}\",\"shots\":100,\"seed\":8}}\n\
         {{\"id\":\"bad\",\"qasm\":\"not qasm\",\"shots\":1}}\n"
    );
    let mut child = Command::new(env!("CARGO_BIN_EXE_qclab"))
        .args(["serve", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary must spawn");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let out = stdout(&out);
    let ok = out.lines().filter(|l| l.contains("\"ok\":true")).count();
    assert_eq!(ok, 2, "{out}");
    let bad = out
        .lines()
        .find(|l| l.contains("\"id\":\"bad\""))
        .unwrap_or_else(|| panic!("no bad-job line in:\n{out}"));
    assert!(bad.contains("\"kind\":\"qasm-parse\""), "{bad}");
    assert!(bad.contains("\"code\":4"), "{bad}");
    assert!(out.contains("\"dedup_hit\":true"), "{out}");
}

/// The paper's teleportation circuit, as the benchmark samples it.
const TELEPORT: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../benchmark/inputs/teleport.qasm"
);

/// Serves one 50-shot [`TELEPORT`] job per `(id, seed)` row, the seed
/// spelled as given, on one worker; returns what `serve` printed.
fn serve_teleport(rows: &[(&str, &str)]) -> String {
    use std::io::Write;
    use std::process::Stdio;
    let input: String = rows
        .iter()
        .map(|(id, seed)| {
            format!("{{\"id\":\"{id}\",\"file\":\"{TELEPORT}\",\"shots\":50,\"seed\":{seed}}}\n")
        })
        .collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_qclab"))
        .args(["serve", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary must spawn");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    stdout(&out)
}

/// A wire integer decodes on its exact value: a served seed of 2^53 + 1,
/// in any spelling, draws what `qclab sample --seed` draws with it, not
/// the bits of 2^53; a seed past `u64::MAX`, or one whose exact value is
/// no integer, is the usage error the CLI makes of it.
#[test]
fn served_integers_decode_exactly() {
    let out = serve_teleport(&[
        ("big", "9007199254740993"),
        ("over", "18446744073709551616"),
        ("big_point", "9007199254740993.0"),
        ("ten", "1e1"),
        ("half", "1.5"),
        ("near_one", "1.0000000000000000001"),
        ("e20", "1e20"),
    ]);
    let line = |id: &str| {
        let needle = format!("\"id\":\"{id}\"");
        out.lines()
            .find(|l| l.contains(&needle))
            .unwrap_or_else(|| panic!("no {id} line in:\n{out}"))
    };
    for (id, seed) in [
        ("big", "9007199254740993"),
        ("big_point", "9007199254740993"),
        ("ten", "10"),
    ] {
        let served = line(id);
        let from = served.find("\"counts\":{").expect("counts") + "\"counts\":{".len();
        let counts = &served[from..from + served[from..].find('}').unwrap()];
        assert_eq!(counts, sample_counts_as_wire(TELEPORT, "50", seed), "{id}");
    }
    for id in ["over", "half", "near_one", "e20"] {
        let refused = line(id);
        assert!(
            refused.contains("\"kind\":\"usage\",\"code\":2"),
            "{refused}"
        );
        assert!(
            refused.contains("'seed' must be a non-negative integer"),
            "{refused}"
        );
    }
    assert_fails(
        &["sample", TELEPORT, "50", "--seed", "18446744073709551616"],
        EXIT_USAGE,
        "seed",
    );
}

/// RFC 8259's number grammar on the wire: each spelling JSON forbids is
/// the wire's parse error, never a seed, while `0` and `1` still run.
#[test]
fn served_numbers_follow_the_json_grammar() {
    let forbidden = ["01", "1.", "-.5", "1.e5", "-01", "00", "+1", ".5", "1e+"];
    let rows: Vec<(&str, &str)> = forbidden
        .iter()
        .chain(&["0", "1"])
        .map(|&seed| (seed, seed))
        .collect();
    let out = serve_teleport(&rows);
    let refused: Vec<&str> = out.lines().filter(|l| l.contains("\"ok\":false")).collect();
    assert_eq!(refused.len(), forbidden.len(), "{out}");
    for line in refused {
        assert!(
            line.contains("\"kind\":\"io\",\"code\":3") && line.contains("bad JSON job line"),
            "{line}"
        );
    }
    assert!(out.contains("2 job(s) accepted, 9 refused"), "{out}");
}

/// Runs the built binary under `ulimit -v <kib>`: an address space too
/// small for more than a few thread stacks, so the OS refuses thread
/// starts the way a pid limit does.
#[cfg(target_os = "linux")]
fn qclab_capped(kib: u32, args: &[&str]) -> Output {
    Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -v {kib}; exec \"$0\" \"$@\""))
        .arg(env!("CARGO_BIN_EXE_qclab"))
        .args(args)
        .stdin(std::process::Stdio::null())
        .output()
        .expect("sh must spawn")
}

#[cfg(target_os = "linux")]
#[test]
fn serve_refused_its_workers_is_a_resource_error() {
    let out = qclab_capped(300_000, &["serve", "--workers", "2000"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(EXIT_RESOURCE), "stderr: {err}");
    assert!(err.contains("2000 scheduler workers"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_sample_refused_its_threads_prints_the_uncapped_counts() {
    // 19 qubits: above the parallel threshold, and its 8 MiB state still
    // fits beside the binary in 16 MB, where thread stacks do not
    let n = 19;
    let mut src = format!("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{n}];\ncreg c[{n}];\n");
    for layer in 0..4 {
        for q in 0..n {
            src += &format!("h q[{q}];\n");
        }
        for q in (layer % 2..n - 1).step_by(2) {
            src += &format!("cx q[{q}],q[{}];\n", q + 1);
        }
    }
    src += "measure q -> c;\n";
    let w19 = write_qasm("w19.qasm", &src);
    let capped = qclab_capped(16_000, &["sample", &w19, "10"]);
    assert_eq!(capped.status.code(), Some(0), "stderr: {}", stderr(&capped));
    assert_eq!(stdout(&capped), stdout(&qclab(&["sample", &w19, "10"])));
}

#[cfg(target_os = "linux")]
#[test]
fn a_socket_connection_refused_its_thread_gets_one_resource_line() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::UnixStream;
    use std::process::{Child, Stdio};
    use std::time::Duration;
    /// Kills the server however the test ends: a live one would hold
    /// the test harness's output open.
    struct Server(Child);
    impl Drop for Server {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let dir = std::env::temp_dir().join("qclab_cli_errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}_refused.sock", std::process::id()));
    let path = path.to_str().unwrap();
    // 100 MB thread stacks and one malloc arena in 350 MB: the worker
    // and the first connection's two threads fit, a fourth does not
    let mut server = Server(
        Command::new("sh")
            .arg("-c")
            .arg("ulimit -v 350000; exec \"$0\" serve --workers 1 --socket \"$1\"")
            .arg(env!("CARGO_BIN_EXE_qclab"))
            .arg(path)
            .env("RUST_MIN_STACK", "100000000")
            .env("MALLOC_ARENA_MAX", "1")
            .stderr(Stdio::piped())
            .spawn()
            .expect("sh must spawn"),
    );
    let mut banner = String::new();
    BufReader::new(server.0.stderr.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    assert!(banner.contains("listening"), "{banner}");
    let connect = || {
        let conn = UnixStream::connect(path).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        conn
    };
    let job = "{\"id\":\"j\",\"qasm\":\"qreg q[1];\\ncreg c[1];\\nx q[0];\\nmeasure q -> c;\\n\",\"shots\":5}\n";
    // a refused connection closes under a request it never read, which
    // resets it: what it said is whatever arrived before that
    let reply = |mut conn: UnixStream, send: bool| {
        if send {
            let _ = conn
                .write_all(job.as_bytes())
                .and_then(|_| conn.shutdown(std::net::Shutdown::Write));
        }
        let mut text = String::new();
        let _ = conn.read_to_string(&mut text);
        text
    };
    // the first connection's threads are up once its first reply is in
    let held = connect();
    (&held).write_all(job.as_bytes()).unwrap();
    let mut first = String::new();
    BufReader::new(&held).read_line(&mut first).unwrap();
    assert!(first.contains("\"counts\":{\"1\":5}"), "{first}");
    // the next one is answered and closed without a request
    let refused = reply(connect(), false);
    assert_eq!(refused.lines().count(), 1, "{refused}");
    assert!(refused.contains("\"kind\":\"resource\""), "{refused}");
    // the server lives on: once the first connection's threads are gone,
    // a new one is served
    drop(held);
    let served = (0..100).find_map(|_| {
        let text = reply(connect(), true);
        if !text.contains("\"ok\":true") {
            std::thread::sleep(Duration::from_millis(50));
            return None;
        }
        Some(text)
    });
    let served = served.expect("a connection is served again");
    assert!(served.contains("\"counts\":{\"1\":5}"), "{served}");
    let _ = std::fs::remove_file(path);
}
