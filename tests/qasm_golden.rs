//! Front-end golden corpus: one program per construct the OpenQASM
//! importer accepts, with the register size and the exact item list it
//! imports to (`tests/golden/qasm_accepted.txt`), and malformed programs
//! with the line and message they fail with
//! (`tests/golden/qasm_malformed.txt`). Parsed angles are recorded
//! through `Debug`, which prints the shortest decimal that round-trips,
//! so an entry pins every bit.

use qclab::prelude::*;
use qclab_testkit::golden;

/// `(case, source)` of every accepted construct.
const ACCEPTED: &[(&str, &str)] = &[
    ("paper_listing", "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"),
    ("gate_definition", "OPENQASM 2.0;\nqreg q[2];\ngate rzz2(theta) a,b { cx a,b; rz(theta) b; cx a,b; }\nrzz2(pi/4) q[0], q[1];\nrzz2(-0.5) q[1], q[0];\n"),
    ("nested_gate_definitions", "qreg q[3];\ngate g1 a { h a; }\ngate g2(t) a, b { g1 a; rz(t/2) b; g1 b; cx a, b; }\ngate g3(u, v) a, b, c { g2(u*v) a, c; g2(v) c, b; barrier a, b; u3(u, v, u-v) c; }\ng3(0.25, pi) q[2], q[0], q[1];\n"),
    ("empty_parameter_lists", "qreg q[1];\ngate flip() a { x a; }\nflip() q[0];\nflip q[0];\nh() q[0];\n"),
    ("broadcast", "qreg q[3];\nqreg r[3];\ncreg c[3];\ngate bell a,b { h a; cx a,b; }\nh q;\ncx q, r;\ncx q[0], r;\nrz(0.1) r;\nbell q, r;\nmeasure r -> c;\nmeasure q -> c[0];\n"),
    ("pi_and_function_expressions", "qreg q[1];\nrz(pi) q[0];\nrz(-pi/2) q[0];\nrx(2*pi/3) q[0];\nry(pi^2 - 1) q[0];\nu3(sin(0.3), cos(pi/3)*2, sqrt(2)^2) q[0];\nu2(exp(1) - ln(2), tan(0.1)) q[0];\nrz(2^3^0.5) q[0];\nrz(1e-3) q[0];\nrz(.5) q[0];\nrz(-(-1.5)) q[0];\nrz(+1) q[0];\nrz(3.5E+2 / 7) q[0];\nrz(((1)+(2))*(3)) q[0];\np(1/3) q[0];\nu1(--1) q[0];\nrz(1-2-3) q[0];\nrz(8/4/2) q[0];\nrz(0.1234567890123456789) q[0];\nrz(2.5e-3) q[0];\nrz(7.) q[0];\n"),
    ("comments", "// leading comment\nOPENQASM 2.0; // header\n// between\nqreg q[2]; // reg\nh q[0]; // apply h\n//\ncx q[0], q[1];// no space\nrz(1 / 2) q[1]; // a slash that divides\n// trailing comment without newline"),
    ("several_qregs", "qreg a[2];\nqreg b[3];\nqreg c[1];\ncreg m[6];\nx a[1];\ncx a[0], b[2];\nccx a[1], b[0], c[0];\nswap b[1], c[0];\nmeasure c[0] -> m[5];\n"),
    ("barrier_reset_measure", "qreg q[3];\nqreg r[1];\ncreg c[3];\ncreg d[1];\nh q[0];\nbarrier q;\nbarrier q[0], r;\nbarrier q[1], q[2];\nreset q[1];\nreset r[0];\nmeasure q[0] -> c[0];\nmeasure q -> c;\nmeasure r[0] -> d[0];\n"),
    ("every_builtin_mnemonic", "qreg q[3];\nid q[0];\nh q[0];\nx q[0];\ny q[0];\nz q[0];\ns q[0];\nsdg q[0];\nt q[0];\ntdg q[0];\nsx q[0];\nsxdg q[0];\nrx(0.1) q[0];\nry(0.2) q[0];\nrz(0.3) q[0];\np(0.4) q[0];\nu1(0.5) q[0];\nu2(0.6, 0.7) q[0];\nu3(0.8, 0.9, 1.0) q[0];\nu(1.1, 1.2, 1.3) q[0];\nswap q[0], q[1];\niswap q[1], q[2];\nrxx(1.4) q[0], q[2];\nryy(1.5) q[2], q[1];\nrzz(1.6) q[1], q[0];\ncx q[0], q[1];\ncnot q[1], q[2];\ncy q[2], q[0];\ncz q[0], q[2];\nch q[1], q[0];\ncrx(1.7) q[0], q[1];\ncry(1.8) q[1], q[2];\ncrz(1.9) q[2], q[0];\ncp(2.0) q[0], q[2];\ncu1(2.1) q[2], q[1];\nccx q[0], q[1], q[2];\ntoffoli q[2], q[0], q[1];\ncswap q[1], q[0], q[2];\n"),
    ("whitespace_and_line_endings", "OPENQASM 2.0;\r\ninclude\t\"qelib1.inc\";\r\nqreg\u{a0}q[2];\u{2003}\n\t h q[0] ;\x0b\x0c\n  cx  q [ 0 ] , q[1];\u{85}rz(\u{3000}0.5\u{2028}) q[1];"),
    ("include_without_header", "include \"qelib1.inc\";\nqreg q[1];\nx q[0];\n"),
    ("integer_version_header", "OPENQASM 2;\nqreg q[1];\nh q[0];\n"),
    ("string_spanning_lines", "include \"a\nb\";\nqreg q[1];\nh q[0];\n"),
    ("identifiers_with_digits_and_underscores", "qreg q_1[2];\nqreg _r2[1];\ngate my_gate_2(t_0) a_1, b2 { crz(t_0) a_1, b2; }\nmy_gate_2(0.5) q_1[1], _r2[0];\n"),
    ("cbit_index_is_checked_for_register_only", "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[7];"),
];

/// `(case, source)` of every malformed program.
fn malformed() -> Vec<(&'static str, String)> {
    [
        ("missing_semicolon", "qreg q[2];\nh q[0]\nx q[1];"),
        ("unexpected_character", "qreg q[1];\n$"),
        ("unterminated_string", "include \"oops;\nqreg q[1];"),
        ("invalid_number", "qreg q[1];\nrz(1.2.3) q[0];"),
        ("lone_equals", "qreg q[1];\nx q[0]; = 1;"),
        ("if_statement", "qreg q[1];\ncreg c[1];\nif (c==1) x q[0];"),
        ("opaque_gate", "opaque magic q;"),
        ("unsupported_version", "OPENQASM 3.0;\nqreg q[1];"),
        ("unknown_qreg", "qreg q[1];\nx r[0];"),
        ("index_out_of_range", "qreg q[1];\nx q[4];"),
        ("unknown_gate", "qreg q[1];\nbogus q[0];"),
        (
            "defined_gate_arity",
            "qreg q[2];\ngate g a { h a; }\ng q[0], q[1];",
        ),
        ("no_qreg", "creg c[1];"),
        ("unknown_creg", "qreg q[1];\nmeasure q[0] -> c[0];"),
        ("unbound_parameter", "qreg q[1];\nrz(theta) q[0];"),
        (
            "recursive_gate",
            "qreg q[1];\ngate loop a { loop a; }\nloop q[0];",
        ),
        ("register_too_large", "qreg q[99999999999];"),
        ("duplicate_qreg", "qreg q[2];\nqreg q[1];"),
        ("broadcast_duplicate_qubit", "qreg q[2];\ncx q, q[0];"),
        (
            "broadcast_size_mismatch",
            "qreg a[2];\nqreg b[3];\ncx a, b;",
        ),
        ("non_ascii_character", "qreg q[1];\nh q[0];\n\u{e9}"),
        (
            "unknown_gate_argument",
            "qreg q[1];\ngate g a { h b; }\ng q[0];",
        ),
        (
            "missing_arrow",
            "qreg q[1];\ncreg c[1];\nmeasure q[0] c[0];",
        ),
        ("bad_exponent", "qreg q[1];\nrz(1e) q[0];"),
        ("end_of_input", "qreg q[1];\nh"),
        (
            "error_after_multiline_string",
            "include \"a\nb\";\nqreg q[1];\nbogus q[0];",
        ),
        ("builtin_parameter_count", "qreg q[1];\nrz(1, 2) q[0];"),
        ("reset_without_index", "qreg q[2];\nreset q;"),
        ("byte_order_mark", "\u{feff}qreg q[1];"),
        ("fractional_register_size", "qreg q[1.5];"),
        ("index_too_large", "qreg q[2];\nh q[18446744073709551616];"),
        ("stray_token", "qreg q[1];\n("),
        ("barrier_unknown_qreg", "qreg q[1];\nbarrier r;"),
        ("gate_body_without_brace", "gate g a h a; }"),
        ("include_without_string", "include qelib1;"),
        ("registers_exceed_cap", "qreg a[1048576];\nqreg b[1];"),
        ("missing_version", "OPENQASM"),
        ("unclosed_gate_body", "qreg q[1];\ngate g a { h a;\n"),
        ("unclosed_parenthesis", "qreg q[1];\nrz((1) q[0];"),
        (
            "function_without_parenthesis",
            "qreg q[1];\nrz(sin 1) q[0];",
        ),
    ]
    .into_iter()
    .map(|(case, src)| (case, src.to_string()))
    .chain([
        // the one entry not recorded before the rewrite: this input used
        // to panic on the unknown register
        (
            "broadcast_measure_unknown_qreg",
            "qreg q[1];\ncreg c[1];\nmeasure r -> c;".to_string(),
        ),
        (
            "expression_nesting",
            format!(
                "qreg q[1];\nrz({}1{}) q[0];",
                "(".repeat(200),
                ")".repeat(200)
            ),
        ),
    ])
    .collect()
}

/// `case: n qubits` and the `Debug` of every imported item, one per line.
#[test]
fn accepted_constructs_import_as_recorded() {
    let mut text = String::new();
    for (case, src) in ACCEPTED {
        match from_qasm(src) {
            Ok(circuit) => {
                text += &format!("{case}: {} qubits\n", circuit.nb_qubits());
                for item in circuit.items() {
                    text += &format!("  {item:?}\n");
                }
            }
            Err(e) => text += &format!("{case}: error: {e}\n"),
        }
    }
    golden!("qasm_accepted", text);
}

/// `case: line n: "message"` of the `QasmParse` error.
#[test]
fn malformed_inputs_fail_with_the_recorded_line_and_message() {
    let mut text = String::new();
    for (case, src) in malformed() {
        text += &match from_qasm(&src) {
            Err(QclabError::QasmParse { line, message }) => {
                format!("{case}: line {line}: {message:?}\n")
            }
            other => format!("{case}: not a parse error: {other:?}\n"),
        };
    }
    golden!("qasm_malformed", text);
}
