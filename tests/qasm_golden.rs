//! Front-end golden corpus: one program per construct the OpenQASM
//! importer accepts, with the register size and the exact item list it
//! imports to, and malformed programs with the line and message they
//! fail with. Parsed angles are compared through `Debug`, which prints
//! the shortest decimal that round-trips, so an entry pins every bit.

use qclab::prelude::*;

/// `(case, source, register size, Debug of every imported item)`.
const ACCEPTED: &[(&str, &str, usize, &[&str])] = &[
    (
        "paper_listing",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n",
        2,
        &[
            "Gate(Hadamard(0))",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(1) })",
            "Measurement(Measurement { qubit: 0, basis: Z })",
            "Measurement(Measurement { qubit: 1, basis: Z })",
        ],
    ),
    (
        "gate_definition",
        "OPENQASM 2.0;\nqreg q[2];\ngate rzz2(theta) a,b { cx a,b; rz(theta) b; cx a,b; }\nrzz2(pi/4) q[0], q[1];\nrzz2(-0.5) q[1], q[0];\n",
        2,
        &[
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(1) })",
            "Gate(RotationZ { qubit: 1, theta: 0.7853981633974483 })",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(1) })",
            "Gate(Controlled { controls: [1], control_states: [1], target: PauliX(0) })",
            "Gate(RotationZ { qubit: 0, theta: -0.5 })",
            "Gate(Controlled { controls: [1], control_states: [1], target: PauliX(0) })",
        ],
    ),
    (
        "nested_gate_definitions",
        "qreg q[3];\ngate g1 a { h a; }\ngate g2(t) a, b { g1 a; rz(t/2) b; g1 b; cx a, b; }\ngate g3(u, v) a, b, c { g2(u*v) a, c; g2(v) c, b; barrier a, b; u3(u, v, u-v) c; }\ng3(0.25, pi) q[2], q[0], q[1];\n",
        3,
        &[
            "Gate(Hadamard(2))",
            "Gate(RotationZ { qubit: 1, theta: 0.39269908169872414 })",
            "Gate(Hadamard(1))",
            "Gate(Controlled { controls: [2], control_states: [1], target: PauliX(1) })",
            "Gate(Hadamard(1))",
            "Gate(RotationZ { qubit: 0, theta: 1.5707963267948966 })",
            "Gate(Hadamard(0))",
            "Gate(Controlled { controls: [1], control_states: [1], target: PauliX(0) })",
            "Gate(U3 { qubit: 1, theta: 0.25, phi: 3.141592653589793, lambda: -2.891592653589793 })",
        ],
    ),
    (
        "empty_parameter_lists",
        "qreg q[1];\ngate flip() a { x a; }\nflip() q[0];\nflip q[0];\nh() q[0];\n",
        1,
        &[
            "Gate(PauliX(0))",
            "Gate(PauliX(0))",
            "Gate(Hadamard(0))",
        ],
    ),
    (
        "broadcast",
        "qreg q[3];\nqreg r[3];\ncreg c[3];\ngate bell a,b { h a; cx a,b; }\nh q;\ncx q, r;\ncx q[0], r;\nrz(0.1) r;\nbell q, r;\nmeasure r -> c;\nmeasure q -> c[0];\n",
        6,
        &[
            "Gate(Hadamard(0))",
            "Gate(Hadamard(1))",
            "Gate(Hadamard(2))",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(3) })",
            "Gate(Controlled { controls: [1], control_states: [1], target: PauliX(4) })",
            "Gate(Controlled { controls: [2], control_states: [1], target: PauliX(5) })",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(3) })",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(4) })",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(5) })",
            "Gate(RotationZ { qubit: 3, theta: 0.1 })",
            "Gate(RotationZ { qubit: 4, theta: 0.1 })",
            "Gate(RotationZ { qubit: 5, theta: 0.1 })",
            "Gate(Hadamard(0))",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(3) })",
            "Gate(Hadamard(1))",
            "Gate(Controlled { controls: [1], control_states: [1], target: PauliX(4) })",
            "Gate(Hadamard(2))",
            "Gate(Controlled { controls: [2], control_states: [1], target: PauliX(5) })",
            "Measurement(Measurement { qubit: 3, basis: Z })",
            "Measurement(Measurement { qubit: 4, basis: Z })",
            "Measurement(Measurement { qubit: 5, basis: Z })",
            "Measurement(Measurement { qubit: 0, basis: Z })",
            "Measurement(Measurement { qubit: 1, basis: Z })",
            "Measurement(Measurement { qubit: 2, basis: Z })",
        ],
    ),
    (
        "pi_and_function_expressions",
        "qreg q[1];\nrz(pi) q[0];\nrz(-pi/2) q[0];\nrx(2*pi/3) q[0];\nry(pi^2 - 1) q[0];\nu3(sin(0.3), cos(pi/3)*2, sqrt(2)^2) q[0];\nu2(exp(1) - ln(2), tan(0.1)) q[0];\nrz(2^3^0.5) q[0];\nrz(1e-3) q[0];\nrz(.5) q[0];\nrz(-(-1.5)) q[0];\nrz(+1) q[0];\nrz(3.5E+2 / 7) q[0];\nrz(((1)+(2))*(3)) q[0];\np(1/3) q[0];\nu1(--1) q[0];\nrz(1-2-3) q[0];\nrz(8/4/2) q[0];\nrz(0.1234567890123456789) q[0];\nrz(2.5e-3) q[0];\nrz(7.) q[0];\n",
        1,
        &[
            "Gate(RotationZ { qubit: 0, theta: 3.141592653589793 })",
            "Gate(RotationZ { qubit: 0, theta: -1.5707963267948966 })",
            "Gate(RotationX { qubit: 0, theta: 2.0943951023931953 })",
            "Gate(RotationY { qubit: 0, theta: 8.869604401089358 })",
            "Gate(U3 { qubit: 0, theta: 0.29552020666133955, phi: 1.0000000000000002, lambda: 2.0000000000000004 })",
            "Gate(U2 { qubit: 0, phi: 2.0251346478990997, lambda: 0.10033467208545055 })",
            "Gate(RotationZ { qubit: 0, theta: 3.3219970854839125 })",
            "Gate(RotationZ { qubit: 0, theta: 0.001 })",
            "Gate(RotationZ { qubit: 0, theta: 0.5 })",
            "Gate(RotationZ { qubit: 0, theta: 1.5 })",
            "Gate(RotationZ { qubit: 0, theta: 1.0 })",
            "Gate(RotationZ { qubit: 0, theta: 50.0 })",
            "Gate(RotationZ { qubit: 0, theta: 9.0 })",
            "Gate(Phase { qubit: 0, theta: 0.3333333333333333 })",
            "Gate(Phase { qubit: 0, theta: 1.0 })",
            "Gate(RotationZ { qubit: 0, theta: -4.0 })",
            "Gate(RotationZ { qubit: 0, theta: 1.0 })",
            "Gate(RotationZ { qubit: 0, theta: 0.12345678901234568 })",
            "Gate(RotationZ { qubit: 0, theta: 0.0025 })",
            "Gate(RotationZ { qubit: 0, theta: 7.0 })",
        ],
    ),
    (
        "comments",
        "// leading comment\nOPENQASM 2.0; // header\n// between\nqreg q[2]; // reg\nh q[0]; // apply h\n//\ncx q[0], q[1];// no space\nrz(1 / 2) q[1]; // a slash that divides\n// trailing comment without newline",
        2,
        &[
            "Gate(Hadamard(0))",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(1) })",
            "Gate(RotationZ { qubit: 1, theta: 0.5 })",
        ],
    ),
    (
        "several_qregs",
        "qreg a[2];\nqreg b[3];\nqreg c[1];\ncreg m[6];\nx a[1];\ncx a[0], b[2];\nccx a[1], b[0], c[0];\nswap b[1], c[0];\nmeasure c[0] -> m[5];\n",
        6,
        &[
            "Gate(PauliX(1))",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(4) })",
            "Gate(Controlled { controls: [1, 2], control_states: [1, 1], target: PauliX(5) })",
            "Gate(Swap(3, 5))",
            "Measurement(Measurement { qubit: 5, basis: Z })",
        ],
    ),
    (
        "barrier_reset_measure",
        "qreg q[3];\nqreg r[1];\ncreg c[3];\ncreg d[1];\nh q[0];\nbarrier q;\nbarrier q[0], r;\nbarrier q[1], q[2];\nreset q[1];\nreset r[0];\nmeasure q[0] -> c[0];\nmeasure q -> c;\nmeasure r[0] -> d[0];\n",
        4,
        &[
            "Gate(Hadamard(0))",
            "Barrier([0, 1, 2])",
            "Barrier([0, 3])",
            "Barrier([1, 2])",
            "Reset(1)",
            "Reset(3)",
            "Measurement(Measurement { qubit: 0, basis: Z })",
            "Measurement(Measurement { qubit: 0, basis: Z })",
            "Measurement(Measurement { qubit: 1, basis: Z })",
            "Measurement(Measurement { qubit: 2, basis: Z })",
            "Measurement(Measurement { qubit: 3, basis: Z })",
        ],
    ),
    (
        "every_builtin_mnemonic",
        "qreg q[3];\nid q[0];\nh q[0];\nx q[0];\ny q[0];\nz q[0];\ns q[0];\nsdg q[0];\nt q[0];\ntdg q[0];\nsx q[0];\nsxdg q[0];\nrx(0.1) q[0];\nry(0.2) q[0];\nrz(0.3) q[0];\np(0.4) q[0];\nu1(0.5) q[0];\nu2(0.6, 0.7) q[0];\nu3(0.8, 0.9, 1.0) q[0];\nu(1.1, 1.2, 1.3) q[0];\nswap q[0], q[1];\niswap q[1], q[2];\nrxx(1.4) q[0], q[2];\nryy(1.5) q[2], q[1];\nrzz(1.6) q[1], q[0];\ncx q[0], q[1];\ncnot q[1], q[2];\ncy q[2], q[0];\ncz q[0], q[2];\nch q[1], q[0];\ncrx(1.7) q[0], q[1];\ncry(1.8) q[1], q[2];\ncrz(1.9) q[2], q[0];\ncp(2.0) q[0], q[2];\ncu1(2.1) q[2], q[1];\nccx q[0], q[1], q[2];\ntoffoli q[2], q[0], q[1];\ncswap q[1], q[0], q[2];\n",
        3,
        &[
            "Gate(Identity(0))",
            "Gate(Hadamard(0))",
            "Gate(PauliX(0))",
            "Gate(PauliY(0))",
            "Gate(PauliZ(0))",
            "Gate(S(0))",
            "Gate(Sdg(0))",
            "Gate(T(0))",
            "Gate(Tdg(0))",
            "Gate(SX(0))",
            "Gate(SXdg(0))",
            "Gate(RotationX { qubit: 0, theta: 0.1 })",
            "Gate(RotationY { qubit: 0, theta: 0.2 })",
            "Gate(RotationZ { qubit: 0, theta: 0.3 })",
            "Gate(Phase { qubit: 0, theta: 0.4 })",
            "Gate(Phase { qubit: 0, theta: 0.5 })",
            "Gate(U2 { qubit: 0, phi: 0.6, lambda: 0.7 })",
            "Gate(U3 { qubit: 0, theta: 0.8, phi: 0.9, lambda: 1.0 })",
            "Gate(U3 { qubit: 0, theta: 1.1, phi: 1.2, lambda: 1.3 })",
            "Gate(Swap(0, 1))",
            "Gate(ISwap(1, 2))",
            "Gate(RotationXX { qubits: [0, 2], theta: 1.4 })",
            "Gate(RotationYY { qubits: [2, 1], theta: 1.5 })",
            "Gate(RotationZZ { qubits: [1, 0], theta: 1.6 })",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(1) })",
            "Gate(Controlled { controls: [1], control_states: [1], target: PauliX(2) })",
            "Gate(Controlled { controls: [2], control_states: [1], target: PauliY(0) })",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliZ(2) })",
            "Gate(Controlled { controls: [1], control_states: [1], target: Hadamard(0) })",
            "Gate(Controlled { controls: [0], control_states: [1], target: RotationX { qubit: 1, theta: 1.7 } })",
            "Gate(Controlled { controls: [1], control_states: [1], target: RotationY { qubit: 2, theta: 1.8 } })",
            "Gate(Controlled { controls: [2], control_states: [1], target: RotationZ { qubit: 0, theta: 1.9 } })",
            "Gate(Controlled { controls: [0], control_states: [1], target: Phase { qubit: 2, theta: 2.0 } })",
            "Gate(Controlled { controls: [2], control_states: [1], target: Phase { qubit: 1, theta: 2.1 } })",
            "Gate(Controlled { controls: [0, 1], control_states: [1, 1], target: PauliX(2) })",
            "Gate(Controlled { controls: [2, 0], control_states: [1, 1], target: PauliX(1) })",
            "Gate(Controlled { controls: [1], control_states: [1], target: Swap(0, 2) })",
        ],
    ),
    (
        "whitespace_and_line_endings",
        "OPENQASM 2.0;\r\ninclude\t\"qelib1.inc\";\r\nqreg\u{a0}q[2];\u{2003}\n\t h q[0] ;\x0b\x0c\n  cx  q [ 0 ] , q[1];\u{85}rz(\u{3000}0.5\u{2028}) q[1];",
        2,
        &[
            "Gate(Hadamard(0))",
            "Gate(Controlled { controls: [0], control_states: [1], target: PauliX(1) })",
            "Gate(RotationZ { qubit: 1, theta: 0.5 })",
        ],
    ),
    (
        "include_without_header",
        "include \"qelib1.inc\";\nqreg q[1];\nx q[0];\n",
        1,
        &[
            "Gate(PauliX(0))",
        ],
    ),
    (
        "integer_version_header",
        "OPENQASM 2;\nqreg q[1];\nh q[0];\n",
        1,
        &[
            "Gate(Hadamard(0))",
        ],
    ),
    (
        "string_spanning_lines",
        "include \"a\nb\";\nqreg q[1];\nh q[0];\n",
        1,
        &[
            "Gate(Hadamard(0))",
        ],
    ),
    (
        "identifiers_with_digits_and_underscores",
        "qreg q_1[2];\nqreg _r2[1];\ngate my_gate_2(t_0) a_1, b2 { crz(t_0) a_1, b2; }\nmy_gate_2(0.5) q_1[1], _r2[0];\n",
        3,
        &[
            "Gate(Controlled { controls: [1], control_states: [1], target: RotationZ { qubit: 2, theta: 0.5 } })",
        ],
    ),
    (
        "cbit_index_is_checked_for_register_only",
        "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[7];",
        1,
        &["Measurement(Measurement { qubit: 0, basis: Z })"],
    ),
];

/// `(case, source, line, message)` of the `QasmParse` error.
fn malformed() -> Vec<(&'static str, String, usize, &'static str)> {
    [
        (
            "missing_semicolon",
            "qreg q[2];\nh q[0]\nx q[1];",
            3,
            "expected ';' after gate application, found Ident(\"x\")",
        ),
        (
            "unexpected_character",
            "qreg q[1];\n$",
            2,
            "unexpected character '$'",
        ),
        (
            "unterminated_string",
            "include \"oops;\nqreg q[1];",
            2,
            "unterminated string literal",
        ),
        (
            "invalid_number",
            "qreg q[1];\nrz(1.2.3) q[0];",
            2,
            "invalid number '1.2.3'",
        ),
        (
            "lone_equals",
            "qreg q[1];\nx q[0]; = 1;",
            2,
            "unexpected '='",
        ),
        (
            "if_statement",
            "qreg q[1];\ncreg c[1];\nif (c==1) x q[0];",
            3,
            "classically controlled 'if' statements are not supported",
        ),
        (
            "opaque_gate",
            "opaque magic q;",
            1,
            "'opaque' gates are not supported",
        ),
        (
            "unsupported_version",
            "OPENQASM 3.0;\nqreg q[1];",
            1,
            "unsupported QASM version Number(3.0)",
        ),
        (
            "unknown_qreg",
            "qreg q[1];\nx r[0];",
            2,
            "unknown quantum register 'r'",
        ),
        (
            "index_out_of_range",
            "qreg q[1];\nx q[4];",
            2,
            "index 4 out of range for qreg q[1]",
        ),
        (
            "unknown_gate",
            "qreg q[1];\nbogus q[0];",
            2,
            "invalid gate spec: unknown gate mnemonic 'bogus'",
        ),
        (
            "defined_gate_arity",
            "qreg q[2];\ngate g a { h a; }\ng q[0], q[1];",
            3,
            "gate 'g' expects 0 params / 1 qubits, got 0 / 2",
        ),
        (
            "no_qreg",
            "creg c[1];",
            0,
            "program declares no quantum register",
        ),
        (
            "unknown_creg",
            "qreg q[1];\nmeasure q[0] -> c[0];",
            2,
            "unknown classical register 'c'",
        ),
        (
            "unbound_parameter",
            "qreg q[1];\nrz(theta) q[0];",
            0,
            "unbound parameter 'theta'",
        ),
        (
            "recursive_gate",
            "qreg q[1];\ngate loop a { loop a; }\nloop q[0];",
            2,
            "gate definition recursion too deep",
        ),
        (
            "register_too_large",
            "qreg q[99999999999];",
            1,
            "register size 99999999999 is too large",
        ),
        (
            "duplicate_qreg",
            "qreg q[2];\nqreg q[1];",
            0,
            "duplicate qreg 'q'",
        ),
        (
            "broadcast_duplicate_qubit",
            "qreg q[2];\ncx q, q[0];",
            2,
            "gate references duplicate qubits: [0, 0]",
        ),
        (
            "broadcast_size_mismatch",
            "qreg a[2];\nqreg b[3];\ncx a, b;",
            3,
            "broadcast size mismatch: 2 vs 3",
        ),
        (
            "non_ascii_character",
            "qreg q[1];\nh q[0];\n\u{e9}",
            3,
            "unexpected character 'é'",
        ),
        (
            "unknown_gate_argument",
            "qreg q[1];\ngate g a { h b; }\ng q[0];",
            2,
            "unknown gate argument 'b'",
        ),
        (
            "missing_arrow",
            "qreg q[1];\ncreg c[1];\nmeasure q[0] c[0];",
            3,
            "expected '->' in measure, found Ident(\"c\")",
        ),
        (
            "bad_exponent",
            "qreg q[1];\nrz(1e) q[0];",
            2,
            "invalid number '1e'",
        ),
        (
            "end_of_input",
            "qreg q[1];\nh",
            2,
            "expected register name, found end of input",
        ),
        (
            "error_after_multiline_string",
            "include \"a\nb\";\nqreg q[1];\nbogus q[0];",
            4,
            "invalid gate spec: unknown gate mnemonic 'bogus'",
        ),
        (
            "builtin_parameter_count",
            "qreg q[1];\nrz(1, 2) q[0];",
            2,
            "invalid gate spec: rz expects 1 params / 1 qubits, got 2 / 1",
        ),
        (
            "reset_without_index",
            "qreg q[2];\nreset q;",
            2,
            "register 'q' used without index",
        ),
        (
            "byte_order_mark",
            "\u{feff}qreg q[1];",
            1,
            "unexpected character '\u{feff}'",
        ),
        (
            "fractional_register_size",
            "qreg q[1.5];",
            1,
            "expected register size, found Number(1.5)",
        ),
        (
            "index_too_large",
            "qreg q[2];\nh q[18446744073709551616];",
            2,
            "register index 18446744073709552000 is too large",
        ),
        ("stray_token", "qreg q[1];\n(", 2, "unexpected token LParen"),
        (
            "barrier_unknown_qreg",
            "qreg q[1];\nbarrier r;",
            2,
            "unknown qreg 'r'",
        ),
        (
            "gate_body_without_brace",
            "gate g a h a; }",
            1,
            "expected '{' starting gate body, found Ident(\"h\")",
        ),
        (
            "include_without_string",
            "include qelib1;",
            1,
            "expected include file string",
        ),
        (
            "registers_exceed_cap",
            "qreg a[1048576];\nqreg b[1];",
            0,
            "quantum registers exceed 1048576 qubits in total",
        ),
        ("missing_version", "OPENQASM", 1, "missing QASM version"),
        (
            "unclosed_gate_body",
            "qreg q[1];\ngate g a { h a;\n",
            2,
            "expected gate name in body, found end of input",
        ),
        (
            "unclosed_parenthesis",
            "qreg q[1];\nrz((1) q[0];",
            2,
            "expected closing ')' after parameters, found Ident(\"q\")",
        ),
        (
            "function_without_parenthesis",
            "qreg q[1];\nrz(sin 1) q[0];",
            2,
            "expected '(' after function name, found Number(1.0)",
        ),
    ]
    .into_iter()
    .map(|(case, src, line, message)| (case, src.to_string(), line, message))
    .chain([
        // the one entry not recorded before the rewrite: this input used
        // to panic on the unknown register
        (
            "broadcast_measure_unknown_qreg",
            "qreg q[1];\ncreg c[1];\nmeasure r -> c;".to_string(),
            3,
            "unknown quantum register 'r'",
        ),
        (
            "expression_nesting",
            format!(
                "qreg q[1];\nrz({}1{}) q[0];",
                "(".repeat(200),
                ")".repeat(200)
            ),
            2,
            "expression nesting too deep",
        ),
    ])
    .collect()
}

#[test]
fn accepted_constructs_import_as_recorded() {
    for (case, src, nb_qubits, items) in ACCEPTED {
        let circuit = from_qasm(src).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(circuit.nb_qubits(), *nb_qubits, "{case}");
        let got: Vec<String> = circuit.items().iter().map(|i| format!("{i:?}")).collect();
        assert_eq!(got, *items, "{case}");
    }
}

#[test]
fn malformed_inputs_fail_with_the_recorded_line_and_message() {
    for (case, src, line, message) in malformed() {
        match from_qasm(&src) {
            Err(QclabError::QasmParse {
                line: l,
                message: m,
            }) => {
                assert_eq!((l, m.as_str()), (line, message), "{case}");
            }
            other => panic!("{case}: expected a parse error, got {other:?}"),
        }
    }
}
