//! Hand-written lexer for the surface language.
//!
//! Produces a `Vec<Token>` in one pass; lexical errors are reported as
//! [`Diagnostic`]s and lexing continues past them, so the editor can keep
//! showing the program while the user types.

use crate::diag::{Diagnostic, Diagnostics};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Lex `src` into tokens, appending problems to `diags`.
///
/// Always returns a token stream terminated by [`TokenKind::Eof`], even on
/// error, so the parser can rely on termination.
pub fn lex(src: &str, diags: &mut Diagnostics) -> Vec<Token> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        tokens: Vec::new(),
        diags,
    }
    .run()
}

struct Lexer<'s, 'd> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
    tokens: Vec<Token>,
    diags: &'d mut Diagnostics,
}

impl Lexer<'_, '_> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            self.skip_trivia();
            if self.pos >= self.bytes.len() {
                break;
            }
            let start = self.pos as u32;
            let b = self.bytes[self.pos];
            match b {
                b'0'..=b'9' => self.number(start),
                b'"' => self.string(start),
                _ if b == b'_' || b.is_ascii_alphabetic() => self.ident(start),
                _ => self.punct(start),
            }
        }
        let end = self.src.len() as u32;
        self.tokens
            .push(Token::new(TokenKind::Eof, Span::point(end)));
        self.tokens
    }

    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.pos + ahead).unwrap_or(&0)
    }

    fn emit(&mut self, kind: TokenKind, start: u32) {
        self.tokens
            .push(Token::new(kind, Span::new(start, self.pos as u32)));
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek(0) {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'/' if self.peek(1) == b'/' => {
                    while self.pos < self.bytes.len() && self.peek(0) != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek(1) == b'*' => {
                    let start = self.pos as u32;
                    self.pos += 2;
                    let mut depth = 1u32;
                    while self.pos < self.bytes.len() && depth > 0 {
                        if self.peek(0) == b'/' && self.peek(1) == b'*' {
                            depth += 1;
                            self.pos += 2;
                        } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                            depth -= 1;
                            self.pos += 2;
                        } else {
                            self.pos += 1;
                        }
                    }
                    if depth > 0 {
                        self.diags.push(Diagnostic::error(
                            Span::new(start, self.pos as u32),
                            "unterminated block comment",
                        ));
                    }
                }
                _ => break,
            }
        }
    }

    fn number(&mut self, start: u32) {
        while self.peek(0).is_ascii_digit() {
            self.pos += 1;
        }
        // A fractional part only if `.` is followed by a digit, so that
        // `1..n` (range) and `t.1` (projection) lex correctly.
        if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
            self.pos += 1;
            while self.peek(0).is_ascii_digit() {
                self.pos += 1;
            }
        }
        let text = &self.src[start as usize..self.pos];
        match text.parse::<f64>() {
            Ok(n) => self.emit(TokenKind::Number(n), start),
            Err(_) => {
                self.diags.push(Diagnostic::error(
                    Span::new(start, self.pos as u32),
                    format!("invalid number literal `{text}`"),
                ));
                self.emit(TokenKind::Number(0.0), start);
            }
        }
    }

    fn string(&mut self, start: u32) {
        self.pos += 1; // opening quote
        let mut value = String::new();
        loop {
            match self.peek(0) {
                0 | b'\n' => {
                    self.diags.push(Diagnostic::error(
                        Span::new(start, self.pos as u32),
                        "unterminated string literal",
                    ));
                    break;
                }
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\\' => {
                    let esc_start = self.pos as u32;
                    self.pos += 1;
                    match self.peek(0) {
                        b'n' => {
                            value.push('\n');
                            self.pos += 1;
                        }
                        b't' => {
                            value.push('\t');
                            self.pos += 1;
                        }
                        b'"' => {
                            value.push('"');
                            self.pos += 1;
                        }
                        b'\\' => {
                            value.push('\\');
                            self.pos += 1;
                        }
                        0 => {
                            // Input ends right after the backslash; the
                            // unterminated-string branch reports it.
                        }
                        _ => {
                            // Step over one whole UTF-8 scalar so the
                            // cursor stays on a char boundary.
                            let Some(ch) = self.src[self.pos..].chars().next() else {
                                continue; // end of input: the next pass reports it
                            };
                            self.pos += ch.len_utf8();
                            self.diags.push(Diagnostic::error(
                                Span::new(esc_start, self.pos as u32),
                                format!("unknown escape `\\{ch}`"),
                            ));
                        }
                    }
                }
                _ => {
                    // Advance over one UTF-8 scalar.
                    let Some(ch) = self.src[self.pos..].chars().next() else {
                        continue; // end of input: the next pass reports it
                    };
                    value.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
        self.emit(TokenKind::Str(value), start);
    }

    fn ident(&mut self, start: u32) {
        while {
            let b = self.peek(0);
            b == b'_' || b.is_ascii_alphanumeric()
        } {
            self.pos += 1;
        }
        let word = &self.src[start as usize..self.pos];
        let kind = TokenKind::keyword(word).unwrap_or_else(|| TokenKind::Ident(word.to_string()));
        self.emit(kind, start);
    }

    fn punct(&mut self, start: u32) {
        use TokenKind::*;
        let b = self.peek(0);
        let b2 = self.peek(1);
        let (kind, len) = match (b, b2) {
            (b':', b'=') => (ColonEq, 2),
            (b'=', b'=') => (EqEq, 2),
            (b'!', b'=') => (BangEq, 2),
            (b'<', b'=') => (Le, 2),
            (b'>', b'=') => (Ge, 2),
            (b'+', b'+') => (PlusPlus, 2),
            (b'&', b'&') => (AmpAmp, 2),
            (b'|', b'|') => (PipePipe, 2),
            (b'.', b'.') => (DotDot, 2),
            (b'-', b'>') => (Arrow, 2),
            (b'(', _) => (LParen, 1),
            (b')', _) => (RParen, 1),
            (b'{', _) => (LBrace, 1),
            (b'}', _) => (RBrace, 1),
            (b'[', _) => (LBracket, 1),
            (b']', _) => (RBracket, 1),
            (b',', _) => (Comma, 1),
            (b';', _) => (Semi, 1),
            (b':', _) => (Colon, 1),
            (b'=', _) => (Eq, 1),
            (b'<', _) => (Lt, 1),
            (b'>', _) => (Gt, 1),
            (b'+', _) => (Plus, 1),
            (b'-', _) => (Minus, 1),
            (b'*', _) => (Star, 1),
            (b'/', _) => (Slash, 1),
            (b'%', _) => (Percent, 1),
            (b'!', _) => (Bang, 1),
            (b'.', _) => (Dot, 1),
            _ => {
                let Some(ch) = self.src[self.pos..].chars().next() else {
                    return; // end of input
                };
                self.pos += ch.len_utf8();
                self.diags.push(Diagnostic::error(
                    Span::new(start, self.pos as u32),
                    format!("unexpected character `{ch}`"),
                ));
                return;
            }
        };
        self.pos += len;
        self.emit(kind, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let mut diags = Diagnostics::new();
        let toks = lex(src, &mut diags);
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_basic_program_shape() {
        let ks = kinds("global count : number = 0");
        assert_eq!(
            ks,
            vec![
                Global,
                Ident("count".into()),
                Colon,
                TyNumber,
                Eq,
                Number(0.0),
                Eof
            ]
        );
    }

    #[test]
    fn distinguishes_range_projection_and_decimal() {
        assert_eq!(
            kinds("0 .. 10"),
            vec![Number(0.0), DotDot, Number(10.0), Eof]
        );
        assert_eq!(kinds("1..3"), vec![Number(1.0), DotDot, Number(3.0), Eof]);
        assert_eq!(kinds("t.1"), vec![Ident("t".into()), Dot, Number(1.0), Eof]);
        assert_eq!(kinds("1.5"), vec![Number(1.5), Eof]);
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds(":= == != <= >= ++ && || -> .."),
            vec![ColonEq, EqEq, BangEq, Le, Ge, PlusPlus, AmpAmp, PipePipe, Arrow, DotDot, Eof]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds(r#""a\n\"b\\""#), vec![Str("a\n\"b\\".into()), Eof]);
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            kinds("1 // line\n/* block /* nested */ */ 2"),
            vec![Number(1.0), Number(2.0), Eof]
        );
    }

    #[test]
    fn error_recovery_continues() {
        let mut diags = Diagnostics::new();
        let toks = lex("a ` b", &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(toks.len(), 3); // a, b, eof
    }

    #[test]
    fn unterminated_string_reports() {
        let mut diags = Diagnostics::new();
        let toks = lex("\"abc", &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(matches!(toks[0].kind, Str(_)));
    }

    #[test]
    fn spans_are_correct() {
        let mut diags = Diagnostics::new();
        let toks = lex("ab cd", &mut diags);
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
    }
}
