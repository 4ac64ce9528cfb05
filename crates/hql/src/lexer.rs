//! The HQL lexer.
//!
//! Tokens: bare identifiers (`[A-Za-z_][A-Za-z0-9_-]*` plus digits-only
//! words, so enclosure sizes like `3000` lex as names), quoted names
//! (`"Amazing Flying Penguin"`), and punctuation. Keywords are
//! recognized case-insensitively by the parser, not the lexer — any
//! word token can also be a name. `--` comments run to end of line.
//!
//! Tokens borrow the script: a word is a slice of it, and so is a quoted
//! name unless a `\"` escape has to be removed, the one case that
//! copies. A quoted name is any UTF-8 text between the quotes. The
//! [`Lexer`] hands tokens out one at a time — the parser pulls them with
//! one token of lookahead — so lexing a statement allocates nothing.

use std::borrow::Cow;

use crate::error::{HqlError, Result};

/// One lexical token, borrowing the script it was lexed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// Bare word (identifier, keyword, or number-like name).
    Word(&'a str),
    /// Quoted name (quotes stripped; `\"` unescaped).
    Quoted(Cow<'a, str>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `;`
    Semicolon,
    /// `=`
    Equals,
}

impl Token<'_> {
    /// The token's text for error messages.
    pub fn render(&self) -> String {
        match self {
            Token::Word(w) => (*w).to_string(),
            Token::Quoted(q) => format!("{q:?}"),
            Token::LParen => "(".into(),
            Token::RParen => ")".into(),
            Token::Comma => ",".into(),
            Token::Colon => ":".into(),
            Token::Semicolon => ";".into(),
            Token::Equals => "=".into(),
        }
    }

    /// Case-insensitive keyword match for a bare word.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    /// The name a word or quoted token denotes.
    pub fn as_name(&self) -> Option<&str> {
        match self {
            Token::Word(w) => Some(w),
            Token::Quoted(q) => Some(q),
            _ => None,
        }
    }
}

/// The tokens of a script, one at a time. After the first error it
/// yields nothing more.
pub struct Lexer<'a> {
    input: &'a str,
    at: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `input`.
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, at: 0 }
    }

    /// A quoted name whose opening quote is at `start`; `self.at` is
    /// past it. Borrowed unless it holds a `\"` escape.
    fn quoted(&mut self, start: usize) -> Result<Token<'a>> {
        let bytes = self.input.as_bytes();
        let body = self.at;
        let mut unescaped: Option<String> = None;
        let mut run = body;
        loop {
            match bytes.get(self.at) {
                None => {
                    return Err(HqlError::Lex {
                        position: start,
                        message: "unterminated quoted name".into(),
                    })
                }
                Some(b'"') => break,
                Some(b'\\') if bytes.get(self.at + 1) == Some(&b'"') => {
                    // Keep the text before the backslash, skip it, and
                    // start the next run at the quote it escapes.
                    let s = unescaped.get_or_insert_with(String::new);
                    s.push_str(&self.input[run..self.at]);
                    self.at += 1;
                    run = self.at;
                    self.at += 1;
                }
                Some(_) => self.at += 1,
            }
        }
        // Every boundary above sits next to an ASCII byte, so each slice
        // is whole UTF-8.
        let name = match unescaped {
            None => Cow::Borrowed(&self.input[body..self.at]),
            Some(mut s) => {
                s.push_str(&self.input[run..self.at]);
                Cow::Owned(s)
            }
        };
        self.at += 1;
        Ok(Token::Quoted(name))
    }

    /// The bare word starting at `self.at`.
    fn word(&mut self) -> Token<'a> {
        let bytes = self.input.as_bytes();
        let start = self.at;
        while let Some(&c) = bytes.get(self.at) {
            // A '-' inside a word is part of it unless it starts a
            // comment.
            let part = c.is_ascii_alphanumeric()
                || c == b'_'
                || (c == b'-' && bytes.get(self.at + 1) != Some(&b'-'));
            if !part {
                break;
            }
            self.at += 1;
        }
        Token::Word(&self.input[start..self.at])
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>>;

    fn next(&mut self) -> Option<Result<Token<'a>>> {
        let bytes = self.input.as_bytes();
        loop {
            let &c = bytes.get(self.at)?;
            let punct = match c {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.at += 1;
                    continue;
                }
                b'-' if bytes.get(self.at + 1) == Some(&b'-') => {
                    while bytes.get(self.at).is_some_and(|&b| b != b'\n') {
                        self.at += 1;
                    }
                    continue;
                }
                b'(' => Token::LParen,
                b')' => Token::RParen,
                b',' => Token::Comma,
                b':' => Token::Colon,
                b';' => Token::Semicolon,
                b'=' => Token::Equals,
                b'"' => {
                    let start = self.at;
                    self.at += 1;
                    let token = self.quoted(start);
                    if token.is_err() {
                        self.at = bytes.len();
                    }
                    return Some(token);
                }
                c if c.is_ascii_alphanumeric() || c == b'_' => return Some(Ok(self.word())),
                _ => {
                    // Outside a quoted name `at` steps over ASCII bytes
                    // only, so it sits on a character boundary.
                    let position = self.at;
                    let other = self.input[position..]
                        .chars()
                        .next()
                        .expect("a character starts at a boundary before the end");
                    self.at = bytes.len();
                    return Some(Err(HqlError::Lex {
                        position,
                        message: format!("unexpected character {other:?}"),
                    }));
                }
            };
            self.at += 1;
            return Some(Ok(punct));
        }
    }
}

/// Lex a full input into tokens.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>> {
    Lexer::new(input).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_punctuation_and_quotes() {
        let toks = lex(r#"CREATE CLASS "Amazing Flying Penguin" UNDER Penguin;"#).unwrap();
        assert_eq!(toks.len(), 6);
        assert!(toks[0].is_kw("create"));
        assert_eq!(toks[2], Token::Quoted("Amazing Flying Penguin".into()));
        assert!(matches!(toks[2], Token::Quoted(Cow::Borrowed(_))));
        assert_eq!(toks[5], Token::Semicolon);
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("SHOW R; -- the whole relation\nCHECK R;").unwrap();
        assert_eq!(toks.len(), 6);
    }

    #[test]
    fn numbers_are_names() {
        let toks = lex("ASSERT Sizes (ALL Elephant, 3000);").unwrap();
        assert!(toks.iter().any(|t| t == &Token::Word("3000")));
    }

    #[test]
    fn hyphenated_words() {
        let toks = lex("SET PREEMPTION R ON-PATH;").unwrap();
        assert!(toks.iter().any(|t| t.is_kw("on-path")));
    }

    #[test]
    fn escaped_quotes() {
        let toks = lex(r#"SHOW "say \"hi\"";"#).unwrap();
        assert_eq!(toks[1], Token::Quoted("say \"hi\"".into()));
        assert!(matches!(toks[1], Token::Quoted(Cow::Owned(_))));
        let toks = lex(r#""\"" "a\\b""#).unwrap();
        assert_eq!(toks[0].as_name(), Some("\""));
        assert_eq!(
            toks[1].as_name(),
            Some(r"a\\b"),
            "a backslash not before a quote stays"
        );
    }

    #[test]
    fn non_ascii_quoted_names_are_kept_whole() {
        let script = "CREATE RELATION \"Ünits\" (x: D); SHOW \"東京\"; \"Café \\\"au\\\" lait\"";
        let names: Vec<String> = lex(script)
            .unwrap()
            .iter()
            .filter_map(|t| t.as_name().map(String::from))
            .collect();
        assert_eq!(
            names,
            [
                "CREATE",
                "RELATION",
                "Ünits",
                "x",
                "D",
                "SHOW",
                "東京",
                "Café \"au\" lait"
            ]
        );
        // Outside quotes a non-ASCII character is an error that names it.
        let e = lex("SHOW Ü;").unwrap_err();
        assert!(e.to_string().contains("'Ü'"), "{e}");
    }

    #[test]
    fn the_lexer_stops_after_its_first_error() {
        let mut lexer = Lexer::new("SHOW @ R");
        assert_eq!(lexer.next().unwrap().unwrap(), Token::Word("SHOW"));
        assert!(matches!(
            lexer.next(),
            Some(Err(HqlError::Lex { position: 5, .. }))
        ));
        assert!(lexer.next().is_none());
    }

    #[test]
    fn lex_errors() {
        assert!(matches!(lex("SHOW @"), Err(HqlError::Lex { .. })));
        assert!(matches!(lex("SHOW \"open"), Err(HqlError::Lex { .. })));
    }

    #[test]
    fn render_and_as_name() {
        assert_eq!(Token::LParen.render(), "(");
        assert_eq!(Token::Word("Bird").as_name(), Some("Bird"));
        assert_eq!(Token::Quoted("A B".into()).as_name(), Some("A B"));
        assert_eq!(Token::Comma.as_name(), None);
    }
}
