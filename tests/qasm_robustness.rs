//! Robustness tests for the OpenQASM front end: arbitrary input must
//! never panic — malformed programs produce structured parse errors with
//! line information.

mod common;

use qclab_qasm::from_qasm;
use qclab_testkit::prelude::*;

/// A representative valid program exercising registers, gate defs,
/// parameters, broadcasts, measurements, resets and barriers — the
/// seed for the mutation fuzzers below.
const VALID_PROGRAM: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n\
    qreg q[3];\ncreg c[3];\n\
    gate rzz2(t) a,b { cx a,b; rz(t) b; cx a,b; }\n\
    h q[0];\nx q[1];\nrzz2(pi/4) q[0], q[1];\ncz q[1], q[2];\n\
    barrier q;\nreset q[2];\nu3(0.1, 0.2, 0.3) q[2];\nmeasure q -> c;\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::fuzz_cases(256)))]

    /// Completely arbitrary strings: the parser returns Ok or Err, never
    /// panics.
    #[test]
    fn arbitrary_input_never_panics(src in ".{0,200}") {
        let _ = from_qasm(&src);
    }

    /// QASM-flavoured token soup: random keywords, numbers and
    /// punctuation stitched together.
    #[test]
    fn token_soup_never_panics(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("qreg".to_string()),
                Just("creg".to_string()),
                Just("gate".to_string()),
                Just("measure".to_string()),
                Just("reset".to_string()),
                Just("barrier".to_string()),
                Just("h".to_string()),
                Just("cx".to_string()),
                Just("rz".to_string()),
                Just("q[0]".to_string()),
                Just("q[1]".to_string()),
                Just("c[0]".to_string()),
                Just("->".to_string()),
                Just("(pi/2)".to_string()),
                Just(";".to_string()),
                Just("{".to_string()),
                Just("}".to_string()),
                Just(",".to_string()),
                Just("q".to_string()),
                Just("2".to_string()),
            ],
            0..40,
        )
    ) {
        let src = tokens.join(" ");
        let _ = from_qasm(&src);
    }

    /// Truncations of a valid program fail gracefully (or parse, for
    /// prefixes that happen to be complete).
    #[test]
    fn truncated_program_never_panics(cut in 0usize..400) {
        let full = VALID_PROGRAM;
        let cut = cut.min(full.len());
        // avoid slicing inside a UTF-8 boundary (input is ASCII here)
        let _ = from_qasm(&full[..cut]);
    }

    /// Completely arbitrary byte soup, decoded lossily: exercises the
    /// lexer on replacement characters, control bytes and broken
    /// multi-byte sequences that string strategies never produce.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = from_qasm(&src);
    }

    /// Byte-level mutations of a valid program: overwrite a handful of
    /// positions with arbitrary bytes. Mutants stay *close* to valid
    /// QASM, hitting error paths deep inside the parser/importer that
    /// pure noise never reaches.
    #[test]
    fn mutated_valid_program_never_panics(
        muts in prop::collection::vec(
            (0usize..VALID_PROGRAM.len(), any::<u8>()),
            1..8,
        )
    ) {
        let mut bytes = VALID_PROGRAM.as_bytes().to_vec();
        for &(pos, b) in &muts {
            bytes[pos] = b;
        }
        let src = String::from_utf8_lossy(&bytes);
        let _ = from_qasm(&src);
    }

    /// Structural mutations: delete a random slice of the valid program
    /// and splice arbitrary bytes into the cut, covering unbalanced
    /// braces, severed statements and merged tokens.
    #[test]
    fn spliced_valid_program_never_panics(
        start in 0usize..VALID_PROGRAM.len(),
        len in 0usize..60,
        splice in prop::collection::vec(any::<u8>(), 0..20),
    ) {
        let end = (start + len).min(VALID_PROGRAM.len());
        let mut bytes = VALID_PROGRAM.as_bytes().to_vec();
        bytes.splice(start..end, splice);
        let src = String::from_utf8_lossy(&bytes);
        let _ = from_qasm(&src);
    }
}

#[test]
fn mutation_seed_program_is_valid() {
    // the fuzzers above mutate VALID_PROGRAM; the mutants only probe
    // deep parser paths if the unmutated seed actually parses
    let c = from_qasm(VALID_PROGRAM).expect("seed program must parse");
    assert_eq!(c.nb_qubits(), 3);
    assert!(c.nb_gates() > 0);
    assert_eq!(c.nb_measurements(), 3);
}

#[test]
fn specific_malformed_programs_error_cleanly() {
    let cases = [
        "qreg q[0];",                        // empty register is useless but parses; gate fails
        "qreg q[2]; h q[5];",                // out of range
        "qreg q[2]; cx q[0], q[0];",         // duplicate qubit
        "qreg q[2]; gate g a { h a; } g q;", // broadcast through gate def
        "qreg q[1]; rz() q[0];",             // empty params
        "qreg q[1]; rz(1,2) q[0];",          // too many params
        "qreg q[1]; measure q[0] -> ;",      // missing cbit
        "OPENQASM 3.0; qreg q[1];",          // unsupported version
        "qreg q[1]; gate loop a { loop a; } loop q[0];", // infinite recursion
    ];
    for src in cases {
        // some are permissible; the point is that none of them panic
        let _ = from_qasm(src);
    }
    // recursion depth specifically must be a clean error, not a stack
    // overflow
    let e = from_qasm("qreg q[1]; gate loop a { loop a; } loop q[0];");
    assert!(e.is_err());
}

#[test]
fn resource_exhaustion_attacks_error_cleanly() {
    // expression nesting bombs must not blow the stack
    let parens = format!(
        "qreg q[1]; rx({}1{}) q[0];",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    assert!(from_qasm(&parens).is_err());
    let minuses = format!("qreg q[1]; rx({}1) q[0];", "-".repeat(50_000));
    assert!(from_qasm(&minuses).is_err());
    let calls = format!(
        "qreg q[1]; rx({}1{}) q[0];",
        "cos(".repeat(10_000),
        ")".repeat(10_000)
    );
    assert!(from_qasm(&calls).is_err());

    // register-size bombs must not trigger huge allocations or
    // overflowing size arithmetic
    assert!(from_qasm("qreg q[99999999999999999999999];").is_err());
    assert!(from_qasm(&format!("qreg q[{}];", u64::MAX)).is_err());
    assert!(from_qasm("qreg a[1048576]; qreg b[1048576];").is_err());

    // a full register count just under the importer cap still parses
    let ok = from_qasm("qreg q[1024]; h q[0];");
    assert!(ok.is_ok(), "moderate registers must import: {ok:?}");
}
