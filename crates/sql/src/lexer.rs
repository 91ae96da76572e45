//! Hand-written SQL lexer.
//!
//! Produces a flat token stream with byte spans. Keywords are not
//! distinguished here: identifiers keep their raw spelling and the parser
//! matches them case-insensitively, so `select`, `SELECT`, and `Select` all
//! work while column names stay case-sensitive.

use crate::error::{Result, Span, SqlError};

/// One lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (raw spelling preserved).
    Ident(String),
    /// Numeric literal (digits with an optional fraction), unparsed text.
    Number(String),
    /// String literal with `''` escapes already collapsed.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
    /// End of input (always the last token).
    Eof,
}

/// A token plus its source span.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Byte range in the query text.
    pub span: Span,
}

/// What a scanned span holds, before any of its text is copied.
pub(crate) enum Lexeme {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal.
    Number,
    /// String literal, quotes and `''` escapes included.
    Str,
    /// Punctuation or an operator: the token itself.
    Sym(Tok),
}

/// The lexer's scan: every token of `sql` as a [`Lexeme`] and its span,
/// whitespace and `--` comments skipped, without allocating. An unlexable
/// character or an unclosed string literal is the last item.
pub(crate) fn scan(sql: &str) -> Scan<'_> {
    Scan { sql, i: 0 }
}

/// The iterator [`scan`] returns.
pub(crate) struct Scan<'a> {
    sql: &'a str,
    i: usize,
}

impl Iterator for Scan<'_> {
    type Item = Result<(Lexeme, Span)>;

    fn next(&mut self) -> Option<Self::Item> {
        let (sql, b) = (self.sql, self.sql.as_bytes());
        let mut i = self.i;
        let item = loop {
            let Some(&c) = b.get(i) else {
                break None;
            };
            let start = i;
            let lexeme = match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    i += 1;
                    continue;
                }
                b'-' if b.get(i + 1) == Some(&b'-') => {
                    while i < b.len() && b[i] != b'\n' {
                        i += 1;
                    }
                    continue;
                }
                b'\'' => {
                    i += 1;
                    loop {
                        match b.get(i) {
                            None => {
                                i = b.len();
                                break Err(SqlError::new(
                                    "unclosed string literal",
                                    Span::new(start, b.len()),
                                ));
                            }
                            Some(b'\'') if b.get(i + 1) == Some(&b'\'') => i += 2,
                            Some(b'\'') => {
                                i += 1;
                                break Ok(Lexeme::Str);
                            }
                            // Strings are sliced on char boundaries by `lex`.
                            Some(&c) => i += utf8_len(c),
                        }
                    }
                }
                b'0'..=b'9' => {
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        i += 1;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    Ok(Lexeme::Number)
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    Ok(Lexeme::Ident)
                }
                _ => {
                    let (tok, len) = match (c, b.get(i + 1)) {
                        (b'<', Some(b'>')) => (Tok::Ne, 2),
                        (b'<', Some(b'=')) => (Tok::Le, 2),
                        (b'>', Some(b'=')) => (Tok::Ge, 2),
                        (b'!', Some(b'=')) => (Tok::Ne, 2),
                        (b'<', _) => (Tok::Lt, 1),
                        (b'>', _) => (Tok::Gt, 1),
                        (b'=', _) => (Tok::Eq, 1),
                        (b'(', _) => (Tok::LParen, 1),
                        (b')', _) => (Tok::RParen, 1),
                        (b',', _) => (Tok::Comma, 1),
                        (b'.', _) => (Tok::Dot, 1),
                        (b'*', _) => (Tok::Star, 1),
                        (b'+', _) => (Tok::Plus, 1),
                        (b'-', _) => (Tok::Minus, 1),
                        (b'/', _) => (Tok::Slash, 1),
                        (b';', _) => (Tok::Semi, 1),
                        _ => {
                            let end = start + utf8_len(c);
                            i = b.len();
                            break Some(Err(SqlError::new(
                                format!("unexpected character `{}`", &sql[start..end]),
                                Span::new(start, end),
                            )));
                        }
                    };
                    i += len;
                    Ok(Lexeme::Sym(tok))
                }
            };
            break Some(lexeme.map(|l| (l, Span::new(start, i))));
        };
        self.i = i;
        item
    }
}

/// Lexes `sql` into tokens (terminated by [`Tok::Eof`]).
///
/// `--` starts a comment running to end of line, as in standard SQL.
pub fn lex(sql: &str) -> Result<Vec<Token>> {
    let mut out = Vec::with_capacity(sql.len() / 4);
    for item in scan(sql) {
        let (lexeme, span) = item?;
        let text = &sql[span.start..span.end];
        let tok = match lexeme {
            Lexeme::Ident => Tok::Ident(text.to_string()),
            Lexeme::Number => Tok::Number(text.to_string()),
            Lexeme::Str => {
                let inner = &text[1..text.len() - 1];
                // A quote inside the literal is half of an `''` escape.
                Tok::Str(match inner.contains('\'') {
                    true => inner.replace("''", "'"),
                    false => inner.to_string(),
                })
            }
            Lexeme::Sym(tok) => tok,
        };
        out.push(Token { tok, span });
    }
    out.push(Token { tok: Tok::Eof, span: Span::new(sql.len(), sql.len()) });
    Ok(out)
}

/// Length in bytes of the UTF-8 character starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(sql: &str) -> Vec<Tok> {
        lex(sql).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_stream() {
        assert_eq!(
            toks("SELECT a, 1.5 FROM t -- comment\nWHERE x <> 'it''s'"),
            vec![
                Tok::Ident("SELECT".into()),
                Tok::Ident("a".into()),
                Tok::Comma,
                Tok::Number("1.5".into()),
                Tok::Ident("FROM".into()),
                Tok::Ident("t".into()),
                Tok::Ident("WHERE".into()),
                Tok::Ident("x".into()),
                Tok::Ne,
                Tok::Str("it's".into()),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let ts = lex("ab <= 12").unwrap();
        assert_eq!(ts[0].span, Span::new(0, 2));
        assert_eq!(ts[1].span, Span::new(3, 5));
        assert_eq!(ts[2].span, Span::new(6, 8));
    }

    #[test]
    fn unclosed_string_is_an_error() {
        let err = lex("SELECT 'oops").unwrap_err();
        assert!(err.message.contains("unclosed string"), "{err}");
        assert_eq!(err.span.start, 7);
    }

    #[test]
    fn unexpected_character_is_an_error() {
        let err = lex("SELECT a ? b").unwrap_err();
        assert!(err.message.contains('?'), "{err}");
    }

    #[test]
    fn number_then_dot_then_ident_stays_three_tokens() {
        // `1.x` must not lex the dot into the number.
        assert_eq!(
            toks("1.x"),
            vec![Tok::Number("1".into()), Tok::Dot, Tok::Ident("x".into()), Tok::Eof]
        );
    }
}
