//! Tokenizer for OpenQASM 2.0 source text.
//!
//! Scans the source byte by byte into a flat token stream with line
//! numbers for error reporting. Identifiers and string literals are
//! slices of the source; a number is parsed from its slice with
//! `str::parse::<f64>`. Handles `//` line comments, string literals (for
//! `include`), reals, integers, identifiers/keywords and the
//! operator/punctuation set of the OpenQASM 2.0 grammar. Whitespace is
//! what `char::is_whitespace` says it is, non-ASCII included.

use qclab_core::QclabError;

/// A lexical token.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tok<'a> {
    /// Identifier or keyword (`qreg`, `measure`, gate names, …).
    Ident(&'a str),
    /// Numeric literal (integers are also parsed as reals; integer-ness
    /// is re-checked where the grammar requires it).
    Number(f64),
    /// String literal, quotes stripped (only used by `include`).
    Str(&'a str),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Semicolon,
    /// `->` in measure statements.
    Arrow,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    /// `==` (accepted but unused: `if` statements are rejected later with
    /// a clear message rather than a lex error).
    EqEq,
}

/// A token paired with its 1-based source line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpannedTok<'a> {
    pub tok: Tok<'a>,
    pub line: usize,
}

fn err(line: usize, message: String) -> QclabError {
    QclabError::QasmParse { line, message }
}

/// Tokenizes QASM source. Returns a lex error with line info on an
/// unexpected character, a malformed number or an unterminated string.
pub fn tokenize(src: &str) -> Result<Vec<SpannedTok<'_>>, QclabError> {
    let b = src.as_bytes();
    // gate lists run to a token per two or three bytes: one allocation
    let mut out = Vec::with_capacity(b.len() / 2);
    let mut line = 1usize;
    let mut i = 0;
    // every jump below lands on an ASCII byte or past a whole scalar, so
    // `i` is always a char boundary of `src`
    while let Some(&c) = b.get(i) {
        let start = i;
        i += 1;
        let tok = match c {
            b'\n' => {
                line += 1;
                continue;
            }
            b' ' | b'\t' | b'\r' | 0x0b | 0x0c => continue,
            b'/' if b.get(i) == Some(&b'/') => {
                // line comment: its newline is counted by the next turn
                i = b[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(b.len(), |n| i + n);
                continue;
            }
            b'"' => {
                let Some(len) = b[i..].iter().position(|&c| c == b'"') else {
                    line += b[i..].iter().filter(|&&c| c == b'\n').count();
                    return Err(err(line, "unterminated string literal".into()));
                };
                let text = &src[i..i + len];
                line += text.bytes().filter(|&c| c == b'\n').count();
                i += len + 1;
                Tok::Str(text)
            }
            b'0'..=b'9' | b'.' => {
                while let Some(&d) = b.get(i) {
                    match d {
                        b'0'..=b'9' | b'.' => i += 1,
                        // an exponent, optionally signed
                        b'e' | b'E' => {
                            i += 1;
                            if matches!(b.get(i), Some(b'+' | b'-')) {
                                i += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = &src[start..i];
                match text.parse() {
                    Ok(v) => Tok::Number(v),
                    Err(_) => return Err(err(line, format!("invalid number '{text}'"))),
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while b
                    .get(i)
                    .is_some_and(|d| d.is_ascii_alphanumeric() || *d == b'_')
                {
                    i += 1;
                }
                Tok::Ident(&src[start..i])
            }
            b'-' if b.get(i) == Some(&b'>') => {
                i += 1;
                Tok::Arrow
            }
            b'=' if b.get(i) == Some(&b'=') => {
                i += 1;
                Tok::EqEq
            }
            b'=' => return Err(err(line, "unexpected '='".into())),
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b',' => Tok::Comma,
            b';' => Tok::Semicolon,
            b'+' => Tok::Plus,
            b'-' => Tok::Minus,
            b'*' => Tok::Star,
            b'/' => Tok::Slash,
            b'^' => Tok::Caret,
            _ => {
                let ch = src[start..]
                    .chars()
                    .next()
                    .expect("`start` is a char boundary");
                if ch.is_whitespace() {
                    i = start + ch.len_utf8();
                    continue;
                }
                return Err(err(line, format!("unexpected character '{ch}'")));
            }
        };
        out.push(SpannedTok { tok, line });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        tokenize(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn basic_statement() {
        assert_eq!(
            toks("qreg q[2];"),
            vec![
                Tok::Ident("qreg"),
                Tok::Ident("q"),
                Tok::LBracket,
                Tok::Number(2.0),
                Tok::RBracket,
                Tok::Semicolon
            ]
        );
    }

    #[test]
    fn arrow_vs_minus() {
        assert_eq!(
            toks("measure q[0] -> c[0];")[4..6],
            [Tok::RBracket, Tok::Arrow]
        );
        assert_eq!(toks("-1")[0], Tok::Minus);
        assert_eq!(toks("a-")[1], Tok::Minus);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("h q[0]; // apply hadamard\nx q[1];").len(),
            12 // two gate statements of 6 tokens each
        );
        assert_eq!(
            toks("1 / 2 // end"),
            [Tok::Number(1.0), Tok::Slash, Tok::Number(2.0)]
        );
    }

    #[test]
    fn string_literal() {
        assert_eq!(
            toks("include \"qelib1.inc\";"),
            vec![
                Tok::Ident("include"),
                Tok::Str("qelib1.inc"),
                Tok::Semicolon
            ]
        );
    }

    #[test]
    fn numbers_with_exponent_and_decimal() {
        assert_eq!(toks("2.5e-3")[0], Tok::Number(2.5e-3));
        assert_eq!(toks("0.5")[0], Tok::Number(0.5));
        assert_eq!(toks("3")[0], Tok::Number(3.0));
        assert_eq!(toks("1E+2")[0], Tok::Number(100.0));
        assert!(tokenize("1e").is_err());
        assert!(tokenize("1.2.3").is_err());
    }

    #[test]
    fn line_numbers_track_newlines() {
        let spanned = tokenize("h q[0];\n\nx q[1];").unwrap();
        assert_eq!(spanned[0].line, 1);
        assert_eq!(spanned.last().unwrap().line, 3);
        // a string's own newlines count, and it sits on the line it ends on
        let spanned = tokenize("\"a\nb\" x").unwrap();
        assert_eq!((spanned[0].line, spanned[1].line), (2, 2));
    }

    #[test]
    fn non_ascii_whitespace_separates_tokens() {
        assert_eq!(
            toks("h\u{a0}q\u{3000}[\u{2028}0]"),
            [
                Tok::Ident("h"),
                Tok::Ident("q"),
                Tok::LBracket,
                Tok::Number(0.0),
                Tok::RBracket
            ]
        );
    }

    #[test]
    fn bad_character_errors_with_line() {
        for (src, want) in [
            ("h q[0];\n$", '$'),
            ("x;\n\u{e9}", '\u{e9}'),
            ("\n\u{feff}", '\u{feff}'),
        ] {
            match tokenize(src).unwrap_err() {
                QclabError::QasmParse { line, message } => {
                    assert_eq!(line, 2);
                    assert_eq!(message, format!("unexpected character '{want}'"));
                }
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(tokenize("include \"oops;").is_err());
    }
}
