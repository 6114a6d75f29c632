//! Recursive-descent parser for the supported OpenQASM 2.0 subset.
//!
//! Supported grammar: the `OPENQASM 2.0;` header, `include` (accepted and
//! ignored — the `qelib1` gate set is built in), `qreg`/`creg`
//! declarations, gate definitions, gate applications with parameter
//! expressions and register broadcasting, `measure`, `reset` and
//! `barrier`. `if` and `opaque` are rejected with a clear message.
//!
//! The parser appends to the [`Program`]'s arenas as it goes; a gate
//! call costs a statement and its entries there, nothing of its own.

use crate::ast::*;
use crate::lexer::{tokenize, SpannedTok, Tok};
use crate::{perr, Fallible};
use qclab_core::QclabError;

struct Parser<'a> {
    toks: Vec<SpannedTok<'a>>,
    pos: usize,
    /// Current expression-nesting depth; bounded by [`MAX_EXPR_DEPTH`] so
    /// pathological inputs like `((((…` or `1^1^1^…` error out instead of
    /// overflowing the stack.
    depth: usize,
    program: Program<'a>,
}

/// Maximum expression nesting (parentheses, unary signs, function calls,
/// chained powers). Far above anything a real program needs, far below
/// stack exhaustion.
const MAX_EXPR_DEPTH: usize = 128;

/// Largest integer literal accepted for register sizes and indices.
/// Keeps `v as usize` exact and leaves headroom for the importer's own
/// register-size checks.
const MAX_UINT: f64 = u32::MAX as f64;

/// `found …` of an error message: the token, or the end of the input.
fn found(t: Option<Tok<'_>>) -> String {
    match t {
        Some(t) => format!("{t:?}"),
        None => "end of input".into(),
    }
}

/// The span of arena entries pushed since the arena held `start`.
fn since<T>(arena: &[T], start: usize) -> Span {
    Span {
        start,
        len: arena.len() - start,
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).map(|s| s.tok)
    }

    /// The line of token `at` (of the last one past the end).
    fn line_at(&self, at: usize) -> usize {
        self.toks
            .get(at.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |s| s.line)
    }

    /// The line of the current token.
    fn line(&self) -> usize {
        self.line_at(self.pos)
    }

    fn next(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    /// An error about `t`, the token just consumed, found where `what`
    /// was expected.
    fn unexpected(&self, what: &str, t: Option<Tok<'_>>) -> Box<QclabError> {
        perr(
            self.line_at(self.pos - 1),
            format!("expected {what}, found {}", found(t)),
        )
    }

    fn expect(&mut self, want: Tok<'_>, what: &str) -> Fallible<()> {
        match self.next() {
            Some(t) if t == want => Ok(()),
            t => Err(self.unexpected(what, t)),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Fallible<&'a str> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            t => Err(self.unexpected(what, t)),
        }
    }

    fn expect_uint(&mut self, what: &str) -> Fallible<usize> {
        match self.next() {
            Some(Tok::Number(v)) if (0.0..=MAX_UINT).contains(&v) && v == (v as u64) as f64 => {
                Ok(v as usize)
            }
            Some(Tok::Number(v)) if v > MAX_UINT => Err(perr(
                self.line_at(self.pos - 1),
                format!("{what} {v} is too large"),
            )),
            t => Err(self.unexpected(what, t)),
        }
    }

    fn eat(&mut self, tok: Tok<'_>) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    // ---- expressions -------------------------------------------------

    fn emit(&mut self, e: Expr<'a>) {
        self.program.exprs.push(e);
    }

    /// An expression whose binary operators bind at least `min` tight
    /// (`+ -` 1, `* /` 2, `^` 3), appended to [`Program::exprs`] in
    /// postfix order. `+ - * /` associate to the left, `^` to the right,
    /// and a unary sign binds tighter than any of them.
    fn parse_expr(&mut self, min: u8) -> Fallible<()> {
        self.parse_unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Some(Tok::Plus) => (BinOp::Add, 1),
                Some(Tok::Minus) => (BinOp::Sub, 1),
                Some(Tok::Star) => (BinOp::Mul, 2),
                Some(Tok::Slash) => (BinOp::Div, 2),
                Some(Tok::Caret) => (BinOp::Pow, 3),
                _ => return Ok(()),
            };
            if prec < min {
                return Ok(());
            }
            self.pos += 1;
            if op == BinOp::Pow {
                // the exponent nests one level deeper
                self.nested(|p| p.parse_expr(3))?;
            } else {
                self.parse_expr(prec + 1)?;
            }
            self.emit(Expr::Bin(op));
        }
    }

    /// Runs `f` one nesting level deeper, refusing past [`MAX_EXPR_DEPTH`].
    fn nested(&mut self, f: impl FnOnce(&mut Self) -> Fallible<()>) -> Fallible<()> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(perr(self.line(), "expression nesting too deep"));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn parse_unary(&mut self) -> Fallible<()> {
        self.nested(|p| {
            if p.eat(Tok::Minus) {
                p.parse_unary()?;
                p.emit(Expr::Neg);
                return Ok(());
            }
            if p.eat(Tok::Plus) {
                return p.parse_unary();
            }
            p.parse_atom()
        })
    }

    fn parse_atom(&mut self) -> Fallible<()> {
        match self.next() {
            Some(Tok::Number(v)) => self.emit(Expr::Num(v)),
            Some(Tok::Ident("pi")) => self.emit(Expr::Pi),
            Some(Tok::Ident(name)) => match Func::from_name(name) {
                Some(f) => {
                    self.expect(Tok::LParen, "'(' after function name")?;
                    self.parse_expr(1)?;
                    self.expect(Tok::RParen, "')' after function argument")?;
                    self.emit(Expr::Call(f));
                }
                None => self.emit(Expr::Param(name)),
            },
            Some(Tok::LParen) => {
                self.parse_expr(1)?;
                self.expect(Tok::RParen, "closing ')'")?;
            }
            Some(t) => {
                return Err(perr(
                    self.line_at(self.pos - 1),
                    format!("unexpected token {t:?} in expression"),
                ))
            }
            None => {
                return Err(perr(
                    self.line_at(self.pos - 1),
                    "unexpected end of input in expression",
                ))
            }
        }
        Ok(())
    }

    // ---- arguments ---------------------------------------------------

    fn parse_arg(&mut self) -> Fallible<Arg<'a>> {
        let reg = self.expect_ident("register name")?;
        let index = if self.eat(Tok::LBracket) {
            let i = self.expect_uint("register index")?;
            self.expect(Tok::RBracket, "closing ']'")?;
            Some(i)
        } else {
            None
        };
        Ok(Arg { reg, index })
    }

    /// A comma-separated argument list, appended to [`Program::args`].
    fn parse_args(&mut self) -> Fallible<Span> {
        let start = self.program.args.len();
        loop {
            let arg = self.parse_arg()?;
            self.program.args.push(arg);
            if !self.eat(Tok::Comma) {
                return Ok(since(&self.program.args, start));
            }
        }
    }

    /// A gate call after its name has been consumed.
    fn parse_gate_call(&mut self, name: &'a str, line: usize) -> Fallible<GateCall<'a>> {
        let start = self.program.params.len();
        if self.eat(Tok::LParen) && !self.eat(Tok::RParen) {
            loop {
                let code = self.program.exprs.len();
                self.parse_expr(1)?;
                let code = since(&self.program.exprs, code);
                self.program.params.push(code);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen, "closing ')' after parameters")?;
        }
        let params = since(&self.program.params, start);
        let args = self.parse_args()?;
        self.expect(Tok::Semicolon, "';' after gate application")?;
        Ok(GateCall {
            name,
            params,
            args,
            line,
        })
    }

    // ---- statements --------------------------------------------------

    fn parse_reg(&mut self) -> Fallible<(&'a str, usize)> {
        let name = self.expect_ident("register name")?;
        self.expect(Tok::LBracket, "'['")?;
        let size = self.expect_uint("register size")?;
        self.expect(Tok::RBracket, "']'")?;
        self.expect(Tok::Semicolon, "';'")?;
        Ok((name, size))
    }

    /// Comma-separated formal names, appended to [`Program::names`].
    fn parse_names(&mut self, what: &str) -> Fallible<Span> {
        let start = self.program.names.len();
        loop {
            let name = self.expect_ident(what)?;
            self.program.names.push(name);
            if !self.eat(Tok::Comma) {
                return Ok(since(&self.program.names, start));
            }
        }
    }

    fn parse_gate_def(&mut self) -> Fallible<GateDef<'a>> {
        let name = self.expect_ident("gate name")?;
        let mut params = since(&self.program.names, self.program.names.len());
        if self.eat(Tok::LParen) && !self.eat(Tok::RParen) {
            params = self.parse_names("parameter name")?;
            self.expect(Tok::RParen, "')' after gate parameters")?;
        }
        let qargs = self.parse_names("qubit argument")?;
        self.expect(Tok::LBrace, "'{' starting gate body")?;
        // a body holds gate calls only, so they are one run of the body
        // arena
        let start = self.program.body.len();
        while self.peek() != Some(Tok::RBrace) {
            let line = self.line();
            let gname = self.expect_ident("gate name in body")?;
            if gname == "barrier" {
                // barriers inside gate bodies are no-ops; skip to ';'
                while self.peek().is_some_and(|t| t != Tok::Semicolon) {
                    self.pos += 1;
                }
                self.expect(Tok::Semicolon, "';'")?;
                continue;
            }
            let call = self.parse_gate_call(gname, line)?;
            self.program.body.push(call);
        }
        self.expect(Tok::RBrace, "'}' ending gate body")?;
        Ok(GateDef {
            name,
            params,
            qargs,
            body: since(&self.program.body, start),
        })
    }

    fn parse_program(&mut self) -> Fallible<()> {
        // optional header: OPENQASM <version>;
        if self.peek() == Some(Tok::Ident("OPENQASM")) {
            self.pos += 1;
            let line = self.line();
            match self.next() {
                Some(Tok::Number(v)) if (v - 2.0).abs() < 1.0 => {}
                Some(t) => return Err(perr(line, format!("unsupported QASM version {t:?}"))),
                None => return Err(perr(line, "missing QASM version")),
            }
            self.expect(Tok::Semicolon, "';' after version")?;
        }

        while let Some(tok) = self.peek() {
            let line = self.line();
            let Tok::Ident(kw) = tok else {
                return Err(perr(line, format!("unexpected token {tok:?}")));
            };
            self.pos += 1;
            let stmt = match kw {
                "include" => {
                    // the built-in gate table plays the role of
                    // qelib1.inc; the file itself is not read
                    let Some(Tok::Str(_)) = self.next() else {
                        return Err(perr(line, "expected include file string"));
                    };
                    self.expect(Tok::Semicolon, "';' after include")?;
                    continue;
                }
                "qreg" => {
                    let (name, size) = self.parse_reg()?;
                    Stmt::Qreg { name, size }
                }
                "creg" => {
                    let (name, size) = self.parse_reg()?;
                    Stmt::Creg { name, size }
                }
                "gate" => Stmt::GateDef(self.parse_gate_def()?),
                "measure" => {
                    let qubit = self.parse_arg()?;
                    self.expect(Tok::Arrow, "'->' in measure")?;
                    let cbit = self.parse_arg()?;
                    self.expect(Tok::Semicolon, "';' after measure")?;
                    Stmt::Measure { qubit, cbit, line }
                }
                "reset" => {
                    let qubit = self.parse_arg()?;
                    self.expect(Tok::Semicolon, "';' after reset")?;
                    Stmt::Reset { qubit, line }
                }
                "barrier" => {
                    let args = self.parse_args()?;
                    self.expect(Tok::Semicolon, "';' after barrier")?;
                    Stmt::Barrier { args, line }
                }
                "if" => {
                    return Err(perr(
                        line,
                        "classically controlled 'if' statements are not supported",
                    ));
                }
                "opaque" => return Err(perr(line, "'opaque' gates are not supported")),
                gate_name => Stmt::Apply(self.parse_gate_call(gate_name, line)?),
            };
            self.program.statements.push(stmt);
        }
        Ok(())
    }
}

/// Parses OpenQASM 2.0 source into a [`Program`] borrowing from it.
pub fn parse(src: &str) -> Result<Program<'_>, QclabError> {
    let toks = tokenize(src)?;
    // gate-list programs run to a statement and an argument per five
    // tokens, and an expression node per ten
    let n = toks.len();
    let mut parser = Parser {
        toks,
        pos: 0,
        depth: 0,
        program: Program {
            statements: Vec::with_capacity(n / 5),
            args: Vec::with_capacity(n / 5),
            params: Vec::with_capacity(n / 10),
            exprs: Vec::with_capacity(n / 10),
            ..Program::default()
        },
    };
    parser.parse_program().map_err(|e| *e)?;
    Ok(parser.program)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_QASM: &str = r#"OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0], q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"#;

    fn call<'a>(p: &Program<'a>, i: usize) -> GateCall<'a> {
        match p.statements[i] {
            Stmt::Apply(call) => call,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_the_paper_listing() {
        let p = parse(PAPER_QASM).unwrap();
        assert_eq!(p.statements.len(), 6);
        assert_eq!(p.statements[0], Stmt::Qreg { name: "q", size: 2 });
        let cx = call(&p, 3);
        assert_eq!(cx.name, "cx");
        assert_eq!(cx.args.len, 2);
        assert_eq!(cx.args.of(&p.args).unwrap()[1].index, Some(1));
    }

    #[test]
    fn parses_parameters_with_expressions() {
        let p = parse("qreg q[1]; rz(pi/2) q[0]; u3(0.1, -pi, 2*pi) q[0];").unwrap();
        let rz = call(&p, 1);
        assert_eq!(rz.params.len, 1);
        let v = p.eval(
            rz.params.of(&p.params).unwrap()[0],
            &[],
            &[],
            &mut Vec::new(),
        );
        let v = v.unwrap();
        assert!((v - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert_eq!(call(&p, 2).params.len, 3);
    }

    #[test]
    fn parses_gate_definition() {
        let src = "gate rzz(theta) a,b { cx a,b; rz(theta) b; cx a,b; }";
        let p = parse(src).unwrap();
        match p.statements[0] {
            Stmt::GateDef(def) => {
                assert_eq!(def.name, "rzz");
                assert_eq!(def.params.of(&p.names).unwrap(), ["theta"]);
                assert_eq!(def.qargs.of(&p.names).unwrap(), ["a", "b"]);
                assert_eq!(def.body.len, 3);
                assert_eq!(def.body.of(&p.body).unwrap()[1].name, "rz");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcast_argument_without_index() {
        let p = parse("qreg q[3]; h q;").unwrap();
        assert_eq!(call(&p, 1).args.of(&p.args).unwrap()[0].index, None);
    }

    #[test]
    fn reset_and_barrier() {
        let p = parse("qreg q[2]; reset q[0]; barrier q[0], q[1];").unwrap();
        assert!(matches!(p.statements[1], Stmt::Reset { .. }));
        match p.statements[2] {
            Stmt::Barrier { args, .. } => assert_eq!(args.len, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_if_and_opaque() {
        assert!(parse("if (c==1) x q[0];").is_err());
        assert!(parse("opaque magic q;").is_err());
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse("qreg q[2];\nh q[0]\nx q[1];").unwrap_err();
        match e {
            QclabError::QasmParse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deep_expression_nesting_errors_instead_of_overflowing() {
        for pathological in [
            format!(
                "qreg q[1]; rz({}1{}) q[0];",
                "(".repeat(5000),
                ")".repeat(5000)
            ),
            format!("qreg q[1]; rz({}1) q[0];", "-".repeat(5000)),
            format!("qreg q[1]; rz({}", "(".repeat(100_000)),
            format!(
                "qreg q[1]; rz({}pi(1{}) q[0];",
                "cos(".repeat(5000),
                ")".repeat(5000)
            ),
            format!("qreg q[1]; rz(1{}) q[0];", "^1".repeat(100_000)),
        ] {
            let e = parse(&pathological).unwrap_err();
            assert!(matches!(e, QclabError::QasmParse { .. }));
        }
        // moderately nested expressions still parse
        let ok = format!("qreg q[1]; rz({}1{}) q[0];", "(".repeat(60), ")".repeat(60));
        assert!(parse(&ok).is_ok());
        assert!(parse(&format!("qreg q[1]; rz(1{}) q[0];", "^1".repeat(60))).is_ok());
    }

    #[test]
    fn oversized_integer_literals_are_rejected() {
        assert!(parse("qreg q[99999999999999999999];").is_err());
        assert!(parse("qreg q[1e300];").is_err());
        assert!(parse("qreg q[2]; h q[18446744073709551616];").is_err());
    }

    #[test]
    fn expression_precedence() {
        let p = parse("qreg q[1]; rz(1+2*3^2) q[0];").unwrap();
        let code = call(&p, 1).params.of(&p.params).unwrap()[0];
        assert_eq!(p.eval(code, &[], &[], &mut Vec::new()).unwrap(), 19.0);
    }
}
