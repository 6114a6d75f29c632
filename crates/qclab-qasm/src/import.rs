//! Conversion of a parsed OpenQASM [`Program`] into a [`QCircuit`].
//!
//! Multiple quantum registers are concatenated into one qclab register
//! (offsets assigned in declaration order). User gate definitions are
//! expanded inline — parameters are evaluated and formal qubit arguments
//! substituted, recursively, so the resulting circuit contains only
//! built-in gates. Bare register arguments broadcast across the register
//! as the OpenQASM spec prescribes.
//!
//! Registers and definitions are looked up in tables built once per
//! program. A gate call's parameter values and qubits go on scratch
//! stacks that every call reuses (a definition's body pushes its own
//! frame above its caller's), so expanding a call allocates nothing but
//! the gates it emits.

use crate::ast::{Arg, GateDef, Program, Stmt};
use crate::{perr, Fallible};
use qclab_core::circuit::CircuitItem;
use qclab_core::gates::factories::gate_from_mnemonic;
use qclab_core::{Gate, Measurement, QCircuit, QclabError};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Cap on the combined size of all quantum registers. Far beyond anything
/// simulable (the state-vector guard kicks in near 30 qubits), but low
/// enough that broadcasting over a declared register can never exhaust
/// memory.
pub const MAX_IMPORT_QUBITS: usize = 1 << 20;

/// Deepest chain of user gate definitions one call may expand through.
const MAX_EXPANSION_DEPTH: usize = 64;

struct Importer<'p, 'a> {
    program: &'p Program<'a>,
    /// name -> (offset, size)
    qregs: HashMap<&'a str, (usize, usize)>,
    /// The register the last lookup found: an argument mostly names the
    /// register the one before it did.
    last_qreg: Cell<Option<(&'a str, (usize, usize))>>,
    nb_qubits: usize,
    cregs: HashSet<&'a str>,
    /// The last definition of each name.
    defs: HashMap<&'a str, GateDef<'a>>,
    /// Parameter values of the calls being expanded, innermost last.
    values: Vec<f64>,
    /// Absolute qubits of the calls being expanded, innermost last.
    qubits: Vec<usize>,
    /// Operand stack of the expression evaluator.
    stack: Vec<f64>,
    /// The built-in gates one top-level call expanded to.
    gates: Vec<Gate>,
}

impl<'p, 'a> Importer<'p, 'a> {
    /// First pass: registers and definitions.
    fn new(program: &'p Program<'a>) -> Fallible<Self> {
        let mut imp = Importer {
            program,
            qregs: HashMap::new(),
            last_qreg: Cell::new(None),
            nb_qubits: 0,
            cregs: HashSet::new(),
            defs: HashMap::new(),
            values: Vec::new(),
            qubits: Vec::new(),
            stack: Vec::new(),
            gates: Vec::new(),
        };
        for stmt in &program.statements {
            match *stmt {
                Stmt::Qreg { name, size } => {
                    if imp.qregs.insert(name, (imp.nb_qubits, size)).is_some() {
                        return Err(perr(0, format!("duplicate qreg '{name}'")));
                    }
                    // checked: a hostile `qreg q[huge]` must error, not
                    // overflow (debug) or wrap (release) — and registers past
                    // MAX_IMPORT_QUBITS would only die later in broadcasting
                    // or simulation, so refuse them with a clear message here
                    imp.nb_qubits = match imp.nb_qubits.checked_add(size) {
                        Some(total) if total <= MAX_IMPORT_QUBITS => total,
                        _ => {
                            return Err(perr(
                                0,
                                format!(
                                    "quantum registers exceed {MAX_IMPORT_QUBITS} qubits in total"
                                ),
                            ))
                        }
                    };
                }
                Stmt::Creg { name, .. } => {
                    imp.cregs.insert(name);
                }
                Stmt::GateDef(def) => {
                    imp.defs.insert(def.name, def);
                }
                _ => {}
            }
        }
        if imp.nb_qubits == 0 {
            return Err(perr(0, "program declares no quantum register"));
        }
        Ok(imp)
    }

    /// `(offset, size)` of a quantum register.
    fn qreg(&self, name: &str, line: usize) -> Fallible<(usize, usize)> {
        match self.last_qreg.get() {
            Some((last, reg)) if last == name => Ok(reg),
            _ => {
                let (&name, &reg) = self
                    .qregs
                    .get_key_value(name)
                    .ok_or_else(|| perr(line, format!("unknown quantum register '{name}'")))?;
                self.last_qreg.set(Some((name, reg)));
                Ok(reg)
            }
        }
    }

    /// Resolves argument `arg` to an absolute qubit; a bare register
    /// stands for its qubit `k` (the broadcast iteration).
    fn resolve(&self, arg: &Arg<'_>, k: Option<usize>, line: usize) -> Fallible<usize> {
        let (off, size) = self.qreg(arg.reg, line)?;
        let idx = arg
            .index
            .or(k)
            .ok_or_else(|| perr(line, format!("register '{}' used without index", arg.reg)))?;
        if idx >= size {
            return Err(perr(
                line,
                format!("index {idx} out of range for qreg {}[{size}]", arg.reg),
            ));
        }
        Ok(off + idx)
    }

    /// Broadcast width of a call: the common size of all bare registers
    /// (1 if every argument is indexed).
    fn broadcast_width(&self, args: &[Arg<'_>], line: usize) -> Fallible<usize> {
        let mut width: Option<usize> = None;
        for a in args.iter().filter(|a| a.index.is_none()) {
            let (_, size) = self.qreg(a.reg, line)?;
            match width {
                None => width = Some(size),
                Some(w) if w == size => {}
                Some(w) => {
                    return Err(perr(
                        line,
                        format!("broadcast size mismatch: {w} vs {size}"),
                    ))
                }
            }
        }
        Ok(width.unwrap_or(1))
    }

    /// Expands a gate call into built-in gates on [`Self::gates`],
    /// resolving user definitions recursively. The call's parameter
    /// values are `self.values[params]`, its absolute qubits
    /// `self.qubits[qubits]`.
    fn expand(
        &mut self,
        name: &str,
        params: Range<usize>,
        qubits: Range<usize>,
        line: usize,
        depth: usize,
    ) -> Fallible<()> {
        if depth > MAX_EXPANSION_DEPTH {
            return Err(perr(line, "gate definition recursion too deep"));
        }
        let Some(def) = self.defs.get(name).copied() else {
            return match gate_from_mnemonic(name, &self.values[params], &self.qubits[qubits]) {
                Ok(g) => {
                    self.gates.push(g);
                    Ok(())
                }
                Err(e) => Err(perr(line, format!("{e}"))),
            };
        };
        if def.params.len != params.len() || def.qargs.len != qubits.len() {
            return Err(perr(
                line,
                format!(
                    "gate '{name}' expects {} params / {} qubits, got {} / {}",
                    def.params.len,
                    def.qargs.len,
                    params.len(),
                    qubits.len()
                ),
            ));
        }
        let program = self.program;
        let formal = def.params.of(&program.names)?;
        let qargs = def.qargs.of(&program.names)?;
        for call in def.body.of(&program.body)? {
            let (v0, q0) = (self.values.len(), self.qubits.len());
            for &code in call.params.of(&program.params)? {
                let v =
                    program.eval(code, formal, &self.values[params.clone()], &mut self.stack)?;
                self.values.push(v);
            }
            for a in call.args.of(&program.args)? {
                // the last of two equal formal names wins
                let i = qargs
                    .iter()
                    .rposition(|q| *q == a.reg)
                    .ok_or_else(|| perr(call.line, format!("unknown gate argument '{}'", a.reg)))?;
                self.qubits.push(self.qubits[qubits.start + i]);
            }
            let (v1, q1) = (self.values.len(), self.qubits.len());
            self.expand(call.name, v0..v1, q0..q1, call.line, depth + 1)?;
            self.values.truncate(v0);
            self.qubits.truncate(q0);
        }
        Ok(())
    }
}

fn push(circuit: &mut QCircuit, item: impl Into<CircuitItem>, line: usize) -> Fallible<()> {
    match circuit.try_push_back(item) {
        Ok(_) => Ok(()),
        Err(e) => Err(perr(line, format!("{e}"))),
    }
}

/// Builds a [`QCircuit`] from a parsed program.
pub fn program_to_circuit(program: &Program<'_>) -> Result<QCircuit, QclabError> {
    import(program).map_err(|e| *e)
}

fn import(program: &Program<'_>) -> Fallible<QCircuit> {
    let mut imp = Importer::new(program)?;
    let mut circuit = QCircuit::new(imp.nb_qubits);
    circuit.reserve(program.statements.len());

    // second pass: operations
    for stmt in &program.statements {
        match *stmt {
            Stmt::Qreg { .. } | Stmt::Creg { .. } | Stmt::GateDef(_) => {}
            Stmt::Apply(call) => {
                let line = call.line;
                let args = call.args.of(&program.args)?;
                let width = imp.broadcast_width(args, line)?;
                for &code in call.params.of(&program.params)? {
                    let v = program.eval(code, &[], &[], &mut imp.stack)?;
                    imp.values.push(v);
                }
                let params = 0..imp.values.len();
                for k in 0..width {
                    imp.qubits.clear();
                    for a in args {
                        let q = imp.resolve(a, Some(k), line)?;
                        imp.qubits.push(q);
                    }
                    // the whole call expands before any of its gates is
                    // pushed: an expansion error outranks a placement error
                    imp.expand(call.name, params.clone(), 0..args.len(), line, 0)?;
                    for g in imp.gates.drain(..) {
                        push(&mut circuit, g, line)?;
                    }
                }
                imp.values.clear();
            }
            Stmt::Measure { qubit, cbit, line } => {
                // classical bit target is validated for existence only —
                // qclab records outcomes per branch, not in cregs
                if !imp.cregs.contains(cbit.reg) {
                    return Err(perr(
                        line,
                        format!("unknown classical register '{}'", cbit.reg),
                    ));
                }
                if qubit.index.is_none() {
                    // broadcast measurement over the whole register
                    let (off, size) = imp.qreg(qubit.reg, line)?;
                    for q in off..off + size {
                        push(&mut circuit, Measurement::z(q), line)?;
                    }
                } else {
                    let q = imp.resolve(&qubit, None, line)?;
                    push(&mut circuit, Measurement::z(q), line)?;
                }
            }
            Stmt::Reset { qubit, line } => {
                let q = imp.resolve(&qubit, None, line)?;
                push(&mut circuit, CircuitItem::Reset(q), line)?;
            }
            Stmt::Barrier { args, line } => {
                let mut qs = Vec::new();
                for a in args.of(&program.args)? {
                    if a.index.is_none() {
                        let (off, size) = *imp
                            .qregs
                            .get(a.reg)
                            .ok_or_else(|| perr(line, format!("unknown qreg '{}'", a.reg)))?;
                        qs.extend(off..off + size);
                    } else {
                        qs.push(imp.resolve(a, None, line)?);
                    }
                }
                push(&mut circuit, CircuitItem::Barrier(qs), line)?;
            }
        }
    }
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn import(src: &str) -> QCircuit {
        program_to_circuit(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn paper_listing_builds_paper_circuit() {
        let src = r#"OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"#;
        let c = import(src);
        assert_eq!(c.nb_qubits(), 2);
        assert_eq!(c.nb_gates(), 2);
        assert_eq!(c.nb_measurements(), 2);
        let sim = c.simulate_bitstring("00").unwrap();
        assert_eq!(sim.results(), &["00", "11"]);
    }

    #[test]
    fn gate_definition_expansion() {
        let src = "qreg q[2]; gate rzz2(theta) a,b { cx a,b; rz(theta) b; cx a,b; } rzz2(pi/4) q[0], q[1];";
        let c = import(src);
        assert_eq!(c.nb_gates(), 3);
    }

    #[test]
    fn nested_gate_definitions() {
        let src = "qreg q[1]; gate g1 a { h a; } gate g2 a { g1 a; g1 a; } g2 q[0];";
        let c = import(src);
        assert_eq!(c.nb_gates(), 2);
        // H twice = identity
        assert!(c.to_matrix().unwrap().is_identity(1e-12));
    }

    #[test]
    fn broadcast_over_register() {
        let c = import("qreg q[3]; h q;");
        assert_eq!(c.nb_gates(), 3);
        let c = import("qreg q[2]; creg c[2]; measure q -> c;");
        assert_eq!(c.nb_measurements(), 2);
    }

    #[test]
    fn two_qregs_are_concatenated() {
        let c = import("qreg a[1]; qreg b[2]; x a[0]; x b[1];");
        assert_eq!(c.nb_qubits(), 3);
        // second x lands on absolute qubit 2
        let sim = c.simulate_bitstring("000").unwrap();
        assert_eq!(sim.branches().len(), 1);
        let s = sim.states()[0];
        let idx = s.iter().position(|z| z.norm() > 0.5).unwrap();
        assert_eq!(qclab_math::bits::index_to_bitstring(idx, 3), "101");
    }

    #[test]
    fn import_errors() {
        // unknown register
        assert!(program_to_circuit(&parse("qreg q[1]; x r[0];").unwrap()).is_err());
        // index out of range
        assert!(program_to_circuit(&parse("qreg q[1]; x q[4];").unwrap()).is_err());
        // unknown gate
        assert!(program_to_circuit(&parse("qreg q[1]; bogus q[0];").unwrap()).is_err());
        // wrong arity for a defined gate
        assert!(
            program_to_circuit(&parse("qreg q[2]; gate g a { h a; } g q[0], q[1];").unwrap())
                .is_err()
        );
        // no qreg at all
        assert!(program_to_circuit(&parse("creg c[1];").unwrap()).is_err());
        // unknown creg in measure
        assert!(program_to_circuit(&parse("qreg q[1]; measure q[0] -> c[0];").unwrap()).is_err());
        // unknown qreg in a broadcast measure
        assert!(
            program_to_circuit(&parse("qreg q[1]; creg c[1]; measure r -> c;").unwrap()).is_err()
        );
    }

    #[test]
    fn spans_past_their_arena_are_an_error() {
        // only a program not built by the parser has them
        let src = "qreg q[1]; gate g(t) a { rz(t) a; } g(0.5) q[0]; barrier q;";
        let arenas: [fn(&mut Program<'_>); 5] = [
            |p| p.exprs.clear(),
            |p| p.params.clear(),
            |p| p.args.clear(),
            |p| p.names.clear(),
            |p| p.body.clear(),
        ];
        for clear in arenas {
            let mut p = parse(src).unwrap();
            program_to_circuit(&p).unwrap();
            clear(&mut p);
            let e = program_to_circuit(&p).unwrap_err();
            assert!(e.to_string().contains("malformed program"), "{e}");
        }
    }

    #[test]
    fn reset_and_barrier_import() {
        let c =
            import("qreg q[2]; creg c[2]; h q[0]; reset q[0]; barrier q; measure q[0] -> c[0];");
        assert_eq!(c.len(), 4);
        let sim = c.simulate_bitstring("00").unwrap();
        // reset forces outcome 0 on both branches
        assert!(sim.results().iter().all(|r| *r == "0"));
    }
}
