//! Abstract syntax tree for the supported OpenQASM 2.0 subset, plus the
//! parameter-expression evaluator.
//!
//! The tree borrows from the source text: names are slices of it. It is
//! flat — expressions, call parameters, arguments, formal names and
//! gate-definition bodies each live in one arena of the [`Program`], and
//! a statement refers to its parts by [`Span`] — so parsing a gate call
//! allocates nothing of its own. An expression is stored in postfix
//! order, operands before their operator, and evaluated on an operand
//! stack: no recursion, however long a chain of terms.

use crate::{perr, Fallible};
use qclab_core::QclabError;

/// A run of consecutive entries in one of the [`Program`]'s arenas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    pub len: usize,
}

impl Span {
    /// The span's entries in `arena`. A span past the arena's end — only
    /// a program not built by the parser has one — is an error.
    pub(crate) fn of<T>(self, arena: &[T]) -> Fallible<&[T]> {
        let end = self.start.checked_add(self.len).ok_or_else(malformed)?;
        arena.get(self.start..end).ok_or_else(malformed)
    }
}

/// One node of a parameter expression in postfix order (angle arithmetic
/// over `pi`, literals, formal parameters and the OpenQASM built-in
/// functions): a value, or an operator applied to the values before it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expr<'a> {
    /// Numeric literal.
    Num(f64),
    /// The constant `pi`.
    Pi,
    /// A formal gate parameter, resolved at expansion time.
    Param(&'a str),
    /// Unary negation of the value before it.
    Neg,
    /// Binary operation on the two values before it.
    Bin(BinOp),
    /// Built-in function (`sin`, `cos`, `tan`, `exp`, `ln`, `sqrt`) of
    /// the value before it.
    Call(Func),
}

/// Binary operators of the OpenQASM expression grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
}

/// Built-in unary functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Func {
    Sin,
    Cos,
    Tan,
    Exp,
    Ln,
    Sqrt,
}

impl Func {
    /// Parses a function name.
    pub fn from_name(name: &str) -> Option<Func> {
        Some(match name {
            "sin" => Func::Sin,
            "cos" => Func::Cos,
            "tan" => Func::Tan,
            "exp" => Func::Exp,
            "ln" => Func::Ln,
            "sqrt" => Func::Sqrt,
            _ => return None,
        })
    }
}

/// An argument of a gate application or measurement: a register name with
/// an optional index (`q[3]` or bare `q` for broadcasting).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arg<'a> {
    pub reg: &'a str,
    pub index: Option<usize>,
}

/// A gate application inside the main program or a gate-definition body.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateCall<'a> {
    pub name: &'a str,
    /// The parameter expressions, in [`Program::params`].
    pub params: Span,
    /// In [`Program::args`].
    pub args: Span,
    pub line: usize,
}

/// A user gate definition (`gate name(params) qargs { body }`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateDef<'a> {
    pub name: &'a str,
    /// Formal parameter names, in [`Program::names`].
    pub params: Span,
    /// Formal qubit names, in [`Program::names`].
    pub qargs: Span,
    /// The body's gate calls, in [`Program::body`].
    pub body: Span,
}

/// A top-level statement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Stmt<'a> {
    /// `qreg name[n];`
    Qreg { name: &'a str, size: usize },
    /// `creg name[n];`
    Creg { name: &'a str, size: usize },
    /// A gate definition.
    GateDef(GateDef<'a>),
    /// A gate application.
    Apply(GateCall<'a>),
    /// `measure q[i] -> c[j];`
    Measure {
        qubit: Arg<'a>,
        cbit: Arg<'a>,
        line: usize,
    },
    /// `reset q[i];`
    Reset { qubit: Arg<'a>, line: usize },
    /// `barrier args;` (arguments in [`Program::args`])
    Barrier { args: Span, line: usize },
}

/// A parsed OpenQASM 2.0 program: its statements and the arenas they
/// refer into.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program<'a> {
    pub statements: Vec<Stmt<'a>>,
    /// Expression nodes, each expression a postfix run.
    pub exprs: Vec<Expr<'a>>,
    /// The parameter expressions of every gate call, as runs of `exprs`.
    pub params: Vec<Span>,
    /// Arguments of every gate call and barrier.
    pub args: Vec<Arg<'a>>,
    /// Formal parameter and qubit names of the gate definitions.
    pub names: Vec<&'a str>,
    /// The gate calls of the gate-definition bodies.
    pub body: Vec<GateCall<'a>>,
}

impl Program<'_> {
    /// Evaluates the postfix expression `code` on the operand stack
    /// `stack` (left as it was found, unless the evaluation fails), a
    /// formal parameter `names[i]` standing for `values[i]` (the last of
    /// two equal names wins). Operations run in the order a left-to-right
    /// recursive evaluation would run them, so the first unbound parameter
    /// is the one reported. A run that is not one well-formed postfix
    /// expression — an operator short of operands, or values left over —
    /// is an error too.
    pub(crate) fn eval(
        &self,
        code: Span,
        names: &[&str],
        values: &[f64],
        stack: &mut Vec<f64>,
    ) -> Fallible<f64> {
        let base = stack.len();
        for &e in code.of(&self.exprs)? {
            let v = match e {
                Expr::Num(v) => v,
                Expr::Pi => std::f64::consts::PI,
                Expr::Param(name) => match names.iter().rposition(|n| *n == name) {
                    Some(i) => *values.get(i).ok_or_else(malformed)?,
                    None => return Err(perr(0, format!("unbound parameter '{name}'"))),
                },
                Expr::Neg => -pop(stack, base)?,
                Expr::Bin(op) => {
                    let b = pop(stack, base)?;
                    let a = pop(stack, base)?;
                    match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                        BinOp::Pow => a.powf(b),
                    }
                }
                Expr::Call(f) => {
                    let v = pop(stack, base)?;
                    match f {
                        Func::Sin => v.sin(),
                        Func::Cos => v.cos(),
                        Func::Tan => v.tan(),
                        Func::Exp => v.exp(),
                        Func::Ln => v.ln(),
                        Func::Sqrt => v.sqrt(),
                    }
                }
            };
            stack.push(v);
        }
        let v = pop(stack, base)?;
        if stack.len() != base {
            return Err(malformed());
        }
        Ok(v)
    }
}

/// The value on top of `stack`, which must hold one above `base`.
fn pop(stack: &mut Vec<f64>, base: usize) -> Fallible<f64> {
    if stack.len() > base {
        stack.pop().ok_or_else(malformed)
    } else {
        Err(malformed())
    }
}

fn malformed() -> Box<QclabError> {
    perr(0, "malformed program")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates a program holding just the given postfix expression.
    fn eval(code: Vec<Expr<'static>>, names: &[&str], values: &[f64]) -> Result<f64, QclabError> {
        let len = code.len();
        let p = Program {
            exprs: code,
            ..Program::default()
        };
        let mut stack = vec![7.0];
        let v = p.eval(Span { start: 0, len }, names, values, &mut stack);
        if v.is_ok() {
            assert_eq!(stack, [7.0], "the caller's stack is left as found");
        }
        v.map_err(|e| *e)
    }

    #[test]
    fn eval_arithmetic() {
        let v = eval(
            vec![Expr::Pi, Expr::Num(2.0), Expr::Bin(BinOp::Div)],
            &[],
            &[],
        )
        .unwrap();
        assert!((v - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        // the first operand is the left one
        let v = eval(
            vec![Expr::Num(1.0), Expr::Num(3.0), Expr::Bin(BinOp::Sub)],
            &[],
            &[],
        );
        assert_eq!(v.unwrap(), -2.0);
    }

    #[test]
    fn eval_with_params_and_functions() {
        let code = vec![
            Expr::Num(2.0),
            Expr::Param("theta"),
            Expr::Bin(BinOp::Mul),
            Expr::Call(Func::Sin),
        ];
        let v = eval(code, &["theta"], &[0.5]).unwrap();
        assert!((v - 1f64.sin()).abs() < 1e-15);
        // a repeated formal name binds its last value
        let v = eval(
            vec![Expr::Param("theta")],
            &["theta", "theta"],
            &[0.5, 0.25],
        );
        assert_eq!(v.unwrap(), 0.25);
    }

    #[test]
    fn unbound_parameter_is_an_error() {
        let code = vec![Expr::Num(1.0), Expr::Param("phi"), Expr::Bin(BinOp::Add)];
        assert!(eval(code, &["theta"], &[1.0]).is_err());
    }

    #[test]
    fn malformed_postfix_is_an_error() {
        // an operator short of operands never reaches the caller's values
        for code in [
            vec![Expr::Neg],
            vec![Expr::Num(1.0), Expr::Bin(BinOp::Add)],
            vec![Expr::Call(Func::Sin)],
            vec![],
            vec![Expr::Num(1.0), Expr::Num(2.0)],
        ] {
            let e = eval(code.clone(), &[], &[]).unwrap_err();
            assert!(
                matches!(&e, QclabError::QasmParse { message, .. } if message.contains("malformed")),
                "{code:?}: {e}"
            );
        }
        // a run past the arena's end, and a name bound to no value
        let p = Program {
            exprs: vec![Expr::Num(1.0), Expr::Param("theta")],
            ..Program::default()
        };
        let mut stack = Vec::new();
        for code in [
            Span { start: 1, len: 2 },
            Span {
                start: usize::MAX,
                len: 2,
            },
        ] {
            assert!(p.eval(code, &[], &[], &mut stack).is_err());
        }
        assert!(p
            .eval(Span { start: 1, len: 1 }, &["theta"], &[], &mut stack)
            .is_err());
    }

    #[test]
    fn power_and_negation() {
        let code = vec![
            Expr::Num(2.0),
            Expr::Num(10.0),
            Expr::Bin(BinOp::Pow),
            Expr::Neg,
        ];
        assert_eq!(eval(code, &[], &[]).unwrap(), -1024.0);
    }

    #[test]
    fn func_name_table() {
        assert_eq!(Func::from_name("sqrt"), Some(Func::Sqrt));
        assert_eq!(Func::from_name("bogus"), None);
    }
}
