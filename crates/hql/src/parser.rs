//! Recursive-descent parser for HQL.

use crate::ast::{Derivation, Source, Statement, ValueRef};
use crate::error::{HqlError, Result};
use crate::lexer::{Lexer, Token};

/// Parse a script into statements (semicolon-separated; the final
/// semicolon is optional).
///
/// Tokens are pulled from the [`Lexer`] as the parser needs them, so
/// the only allocations are the statements' own. A lexical error
/// anywhere in the script wins over a parse error before it: the rest
/// of the script is still lexed when a statement fails to parse.
pub fn parse(input: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(input);
    let parsed = p.script();
    while !p.done() {
        p.bump();
    }
    match p.lex_error {
        Some(e) => Err(e),
        None => parsed,
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The one token of lookahead; `None` at the end of the input or
    /// at the first lexical error.
    next: Option<Token<'a>>,
    /// The script's first lexical error, once the lexer reached it.
    lex_error: Option<HqlError>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        let mut p = Parser {
            lexer: Lexer::new(input),
            next: None,
            lex_error: None,
        };
        p.bump();
        p
    }

    fn script(&mut self) -> Result<Vec<Statement>> {
        let mut out = Vec::new();
        while !self.done() {
            // Tolerate stray semicolons.
            if self.eat(&Token::Semicolon) {
                continue;
            }
            out.push(self.statement()?);
            if !self.done() {
                self.expect(&Token::Semicolon, "';' between statements")?;
            }
        }
        Ok(out)
    }

    /// Move the lookahead to the next token.
    fn bump(&mut self) {
        self.next = match self.lexer.next() {
            Some(Ok(t)) => Some(t),
            Some(Err(e)) => {
                self.lex_error = Some(e);
                None
            }
            None => None,
        };
    }

    fn done(&self) -> bool {
        self.next.is_none()
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.next.as_ref()
    }

    fn err(&self, expected: &str) -> HqlError {
        HqlError::Parse {
            found: self
                .peek()
                .map(Token::render)
                .unwrap_or_else(|| "end of input".into()),
            expected: expected.into(),
        }
    }

    fn eat(&mut self, t: &Token<'_>) -> bool {
        if self.peek() == Some(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token<'_>, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("keyword {kw}")))
        }
    }

    fn name(&mut self, what: &str) -> Result<String> {
        match self.peek().and_then(Token::as_name) {
            Some(n) => {
                let n = n.to_string();
                self.bump();
                Ok(n)
            }
            None => Err(self.err(what)),
        }
    }

    fn name_list(&mut self, what: &str) -> Result<Vec<String>> {
        let mut out = vec![self.name(what)?];
        while self.eat(&Token::Comma) {
            out.push(self.name(what)?);
        }
        Ok(out)
    }

    fn value(&mut self) -> Result<ValueRef> {
        let all = self.eat_kw("all");
        let name = self.name("a value name")?;
        Ok(ValueRef { name, all })
    }

    fn value_tuple(&mut self) -> Result<Vec<ValueRef>> {
        self.expect(&Token::LParen, "'('")?;
        let mut out = vec![self.value()?];
        while self.eat(&Token::Comma) {
            out.push(self.value()?);
        }
        self.expect(&Token::RParen, "')'")?;
        Ok(out)
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("create") {
            return self.create();
        }
        if self.eat_kw("prefer") {
            let stronger = self.name("a class name")?;
            self.expect_kw("over")?;
            let weaker = self.name("a class name")?;
            self.expect_kw("in")?;
            let domain = self.name("a domain name")?;
            return Ok(Statement::Prefer {
                stronger,
                weaker,
                domain,
            });
        }
        if self.eat_kw("assert") {
            let negated = self.eat_kw("not");
            let relation = self.name("a relation name")?;
            let values = self.value_tuple()?;
            return Ok(Statement::Assert {
                relation,
                negated,
                values,
            });
        }
        if self.eat_kw("retract") {
            let relation = self.name("a relation name")?;
            let values = self.value_tuple()?;
            return Ok(Statement::Retract { relation, values });
        }
        if self.eat_kw("holds3") {
            let relation = self.name("a relation name")?;
            let values = self.value_tuple()?;
            return Ok(Statement::Holds3 { relation, values });
        }
        if self.eat_kw("holds") {
            let relation = self.name("a relation name")?;
            let values = self.value_tuple()?;
            return Ok(Statement::Holds { relation, values });
        }
        if self.eat_kw("why") {
            let relation = self.name("a relation name")?;
            let values = self.value_tuple()?;
            return Ok(Statement::Why { relation, values });
        }
        if self.eat_kw("check") {
            let relation = self.name("a relation name")?;
            return Ok(Statement::Check { relation });
        }
        if self.eat_kw("show") {
            if self.eat_kw("domain") {
                let name = self.name("a domain name")?;
                return Ok(Statement::ShowDomain { name });
            }
            if self.eat_kw("relations") {
                let over = if self.eat_kw("over") {
                    Some(self.name("a domain name")?)
                } else {
                    None
                };
                return Ok(Statement::ShowRelations { over });
            }
            let relation = self.name("a relation name")?;
            return Ok(Statement::Show { relation });
        }
        if self.eat_kw("dump") {
            let relation = self.name("a relation name")?;
            self.expect_kw("as")?;
            let to = self.name("a new relation name")?;
            return Ok(Statement::Dump { relation, to });
        }
        if self.eat_kw("consolidate") {
            let relation = self.name("a relation name")?;
            return Ok(Statement::Consolidate { relation });
        }
        if self.eat_kw("explicate") {
            let relation = self.name("a relation name")?;
            let attrs = if self.eat_kw("on") {
                self.name_list("an attribute name")?
            } else {
                Vec::new()
            };
            return Ok(Statement::Explicate { relation, attrs });
        }
        if self.eat_kw("set") {
            self.expect_kw("preemption")?;
            let relation = self.name("a relation name")?;
            let mode = self.name("OFF-PATH, ON-PATH, or NONE")?;
            return Ok(Statement::SetPreemption { relation, mode });
        }
        if self.eat_kw("save") {
            let path = self.name("a file path (quote it)")?;
            return Ok(Statement::Save { path });
        }
        if self.eat_kw("load") {
            let path = self.name("a file path (quote it)")?;
            return Ok(Statement::Load { path });
        }
        if self.eat_kw("open") {
            let dir = self.name("a store directory path (quote it)")?;
            let sync_every = if self.eat_kw("sync") {
                self.expect_kw("every")?;
                let word = self.name("a group-commit width")?;
                let n = word.parse::<u64>().map_err(|_| HqlError::Parse {
                    found: word,
                    expected: "a positive integer after SYNC EVERY".into(),
                })?;
                if n == 0 {
                    return Err(HqlError::Parse {
                        found: "0".into(),
                        expected: "a positive integer after SYNC EVERY".into(),
                    });
                }
                Some(n)
            } else {
                None
            };
            return Ok(Statement::Open { dir, sync_every });
        }
        if self.eat_kw("checkpoint") {
            return Ok(Statement::Checkpoint);
        }
        if self.eat_kw("count") {
            let relation = self.name("a relation name")?;
            let by = if self.eat_kw("by") {
                Some(self.name("an attribute name")?)
            } else {
                None
            };
            return Ok(Statement::Count { relation, by });
        }
        if self.eat_kw("let") {
            let name = self.name("a new relation name")?;
            self.expect(&Token::Equals, "'='")?;
            let derivation = self.derivation()?;
            return Ok(Statement::Let { name, derivation });
        }
        if self.eat_kw("explain") {
            let derivation = self.derivation()?;
            return Ok(Statement::Explain { derivation });
        }
        if self.eat_kw("trace") {
            let derivation = self.derivation()?;
            return Ok(Statement::Trace { derivation });
        }
        if self.eat_kw("drop") {
            if self.eat_kw("domain") {
                let name = self.name("a domain name")?;
                return Ok(Statement::DropDomain { name });
            }
            self.expect_kw("relation")
                .map_err(|_| self.err("DOMAIN or RELATION after DROP"))?;
            let name = self.name("a relation name")?;
            return Ok(Statement::DropRelation { name });
        }
        if self.eat_kw("rename") {
            self.expect_kw("relation")?;
            let from = self.name("a relation name")?;
            self.expect_kw("to")?;
            let to = self.name("a new relation name")?;
            return Ok(Statement::RenameRelation { from, to });
        }
        Err(self.err("a statement keyword"))
    }

    fn create(&mut self) -> Result<Statement> {
        if self.eat_kw("domain") {
            let name = self.name("a domain name")?;
            return Ok(Statement::CreateDomain { name });
        }
        if self.eat_kw("class") {
            let name = self.name("a class name")?;
            self.expect_kw("under")?;
            let parents = self.name_list("a parent name")?;
            return Ok(Statement::CreateClass { name, parents });
        }
        if self.eat_kw("instance") {
            let name = self.name("an instance name")?;
            self.expect_kw("of")?;
            let parents = self.name_list("a parent name")?;
            return Ok(Statement::CreateInstance { name, parents });
        }
        if self.eat_kw("relation") {
            let name = self.name("a relation name")?;
            self.expect(&Token::LParen, "'('")?;
            let mut attributes = Vec::new();
            loop {
                let attr = self.name("an attribute name")?;
                self.expect(&Token::Colon, "':'")?;
                let domain = self.name("a domain name")?;
                attributes.push((attr, domain));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen, "')'")?;
            return Ok(Statement::CreateRelation { name, attributes });
        }
        Err(self.err("DOMAIN, CLASS, INSTANCE, or RELATION after CREATE"))
    }

    /// A derivation operand: a relation name, or a parenthesized
    /// derivation (so operator compositions are one statement and the
    /// planner sees the whole tree).
    fn source(&mut self) -> Result<Source> {
        if self.eat(&Token::LParen) {
            let inner = self.derivation()?;
            self.expect(&Token::RParen, "')' after nested derivation")?;
            return Ok(Source::Derived(Box::new(inner)));
        }
        Ok(Source::Named(
            self.name("a relation name or '(' derivation ')'")?,
        ))
    }

    fn derivation(&mut self) -> Result<Derivation> {
        if self.eat_kw("union") {
            return Ok(Derivation::Union(self.source()?, self.source()?));
        }
        if self.eat_kw("intersect") {
            return Ok(Derivation::Intersect(self.source()?, self.source()?));
        }
        if self.eat_kw("difference") {
            return Ok(Derivation::Difference(self.source()?, self.source()?));
        }
        if self.eat_kw("join") {
            return Ok(Derivation::Join(self.source()?, self.source()?));
        }
        if self.eat_kw("project") {
            let rel = self.source()?;
            self.expect(&Token::LParen, "'('")?;
            let attrs = self.name_list("an attribute name")?;
            self.expect(&Token::RParen, "')'")?;
            return Ok(Derivation::Project(rel, attrs));
        }
        if self.eat_kw("select") {
            let rel = self.source()?;
            self.expect_kw("where")?;
            let mut conds = Vec::new();
            loop {
                let attr = self.name("an attribute name")?;
                self.expect_kw("is")?;
                let value = self.value()?;
                conds.push((attr, value));
                if !self.eat_kw("and") {
                    break;
                }
            }
            return Ok(Derivation::Select(rel, conds));
        }
        if self.eat_kw("consolidate") {
            return Ok(Derivation::Consolidated(self.source()?));
        }
        if self.eat_kw("explicate") {
            let rel = self.source()?;
            let attrs = if self.eat_kw("on") {
                self.name_list("an attribute name")?
            } else {
                Vec::new()
            };
            return Ok(Derivation::Explicated(rel, attrs));
        }
        Err(self
            .err("UNION, INTERSECT, DIFFERENCE, JOIN, PROJECT, SELECT, CONSOLIDATE, or EXPLICATE"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ddl() {
        let stmts = parse(
            r#"
            CREATE DOMAIN Animal;
            CREATE CLASS Bird UNDER Animal;
            CREATE CLASS "Amazing Flying Penguin" UNDER Penguin;
            CREATE INSTANCE Patricia OF "Galapagos Penguin", "Amazing Flying Penguin";
            CREATE RELATION Flies (Creature: Animal);
            "#,
        )
        .unwrap();
        assert_eq!(stmts.len(), 5);
        assert_eq!(
            stmts[0],
            Statement::CreateDomain {
                name: "Animal".into()
            }
        );
        match &stmts[3] {
            Statement::CreateInstance { name, parents } => {
                assert_eq!(name, "Patricia");
                assert_eq!(parents.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &stmts[4] {
            Statement::CreateRelation { attributes, .. } => {
                assert_eq!(attributes[0], ("Creature".into(), "Animal".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_assertions() {
        let stmts = parse(
            "ASSERT Flies (ALL Bird);\
             ASSERT NOT Flies (ALL Penguin);\
             RETRACT Flies (ALL Penguin);",
        )
        .unwrap();
        match &stmts[0] {
            Statement::Assert {
                negated, values, ..
            } => {
                assert!(!negated);
                assert!(values[0].all);
                assert_eq!(values[0].name, "Bird");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&stmts[1], Statement::Assert { negated: true, .. }));
        assert!(matches!(&stmts[2], Statement::Retract { .. }));
    }

    #[test]
    fn parse_queries_and_physical_ops() {
        let stmts = parse(
            "HOLDS Flies (Tweety);\
             WHY Flies (Paul);\
             CHECK Flies;\
             SHOW Flies;\
             SHOW DOMAIN Animal;\
             CONSOLIDATE Flies;\
             EXPLICATE Flies ON Creature;\
             SET PREEMPTION Flies ON-PATH;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 8);
        assert!(matches!(&stmts[4], Statement::ShowDomain { .. }));
        match &stmts[6] {
            Statement::Explicate { attrs, .. } => assert_eq!(attrs, &["Creature"]),
            other => panic!("unexpected {other:?}"),
        }
        match &stmts[7] {
            Statement::SetPreemption { mode, .. } => assert_eq!(mode, "ON-PATH"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_derivations() {
        let stmts = parse(
            "LET U = UNION A B;\
             LET J = JOIN Sizes Colors;\
             LET P = PROJECT J (Animal, Color);\
             LET S = SELECT R WHERE Student IS ALL \"Obsequious Student\" AND Teacher IS Smith;\
             LET C = CONSOLIDATE A;\
             LET E = EXPLICATE A;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 6);
        match &stmts[3] {
            Statement::Let {
                derivation: Derivation::Select(rel, conds),
                ..
            } => {
                assert_eq!(rel, &Source::named("R"));
                assert_eq!(conds.len(), 2);
                assert!(conds[0].1.all);
                assert!(!conds[1].1.all);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_nested_derivations_and_explain() {
        let stmts = parse(
            "LET S = SELECT (EXPLICATE Flies) WHERE Creature IS ALL Penguin;\
             EXPLAIN JOIN (UNION A B) Sizes;",
        )
        .unwrap();
        match &stmts[0] {
            Statement::Let {
                derivation: Derivation::Select(Source::Derived(inner), conds),
                ..
            } => {
                assert_eq!(
                    **inner,
                    Derivation::Explicated(Source::named("Flies"), vec![])
                );
                assert_eq!(conds.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &stmts[1] {
            Statement::Explain {
                derivation: Derivation::Join(Source::Derived(inner), right),
            } => {
                assert_eq!(
                    **inner,
                    Derivation::Union(Source::named("A"), Source::named("B"))
                );
                assert_eq!(right, &Source::named("Sizes"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // An unclosed nested derivation is a parse error.
        assert!(parse("LET X = UNION (JOIN A B C;").is_err());
    }

    #[test]
    fn trace_statement_parses() {
        let stmts = parse("TRACE SELECT Flying WHERE Creature IS ALL Penguin;").unwrap();
        assert_eq!(stmts.len(), 1);
        match &stmts[0] {
            Statement::Trace {
                derivation: Derivation::Select(src, conds),
            } => {
                assert_eq!(src, &Source::named("Flying"));
                assert_eq!(conds.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_open_and_checkpoint() {
        let stmts = parse("OPEN \"/tmp/store\" SYNC EVERY 8; CHECKPOINT; OPEN db;").unwrap();
        assert_eq!(
            stmts[0],
            Statement::Open {
                dir: "/tmp/store".into(),
                sync_every: Some(8),
            }
        );
        assert_eq!(stmts[1], Statement::Checkpoint);
        assert_eq!(
            stmts[2],
            Statement::Open {
                dir: "db".into(),
                sync_every: None,
            }
        );
        assert!(parse("OPEN \"x\" SYNC EVERY zero;").is_err());
        assert!(parse("OPEN \"x\" SYNC EVERY 0;").is_err());
        assert!(parse("OPEN \"x\" SYNC 4;").is_err());
    }

    #[test]
    fn parse_drop_rename_list_and_dump() {
        let stmts = parse(
            "DROP DOMAIN Animal;\
             DROP RELATION Flies;\
             RENAME RELATION Flies TO Flying;\
             SHOW RELATIONS;\
             SHOW RELATIONS OVER Animal;\
             DUMP Flies AS Flying;",
        )
        .unwrap();
        assert_eq!(
            stmts[0],
            Statement::DropDomain {
                name: "Animal".into()
            }
        );
        assert_eq!(
            stmts[1],
            Statement::DropRelation {
                name: "Flies".into()
            }
        );
        assert_eq!(
            stmts[2],
            Statement::RenameRelation {
                from: "Flies".into(),
                to: "Flying".into(),
            }
        );
        assert_eq!(stmts[3], Statement::ShowRelations { over: None });
        assert_eq!(
            stmts[5],
            Statement::Dump {
                relation: "Flies".into(),
                to: "Flying".into(),
            }
        );
        assert!(parse("DROP TABLE x;").is_err());
        assert!(parse("RENAME RELATION A B;").is_err());
        assert!(parse("DUMP Flies Flying;").is_err());
        // A relation that is itself called `relations` needs quotes.
        let show = Statement::Show {
            relation: "relations".into(),
        };
        assert_eq!(parse(&show.to_string()).unwrap()[0], show);
        // Round-trip through Display.
        for s in &stmts {
            assert_eq!(parse(&s.to_string()).unwrap()[0], *s);
        }
    }

    #[test]
    fn trailing_semicolon_optional() {
        assert_eq!(parse("SHOW R").unwrap().len(), 1);
        assert_eq!(parse("SHOW R;;;").unwrap().len(), 1);
        assert!(parse("").unwrap().is_empty());
    }

    #[test]
    fn parse_errors_are_descriptive() {
        let e = parse("CREATE TABLE x").unwrap_err();
        assert!(e.to_string().contains("DOMAIN, CLASS"));
        let e = parse("ASSERT Flies Tweety").unwrap_err();
        assert!(e.to_string().contains("'('"));
        let e = parse("SHOW R CHECK R").unwrap_err();
        assert!(e.to_string().contains("';'"));
        let e = parse("LET X = FROBNICATE A").unwrap_err();
        assert!(e.to_string().contains("UNION"));
    }

    #[test]
    fn a_lexical_error_wins_over_an_earlier_parse_error() {
        assert!(matches!(
            parse("SHOW R CHECK R; SHOW @"),
            Err(HqlError::Lex { .. })
        ));
        assert!(matches!(
            parse("CREATE TABLE \"open"),
            Err(HqlError::Lex { .. })
        ));
        assert!(matches!(parse("SHOW R; SHOW @"), Err(HqlError::Lex { .. })));
        assert!(matches!(
            parse("SHOW R CHECK R"),
            Err(HqlError::Parse { .. })
        ));
    }

    #[test]
    fn non_ascii_names_round_trip() {
        let stmts = parse("CREATE RELATION \"Ünits\" (x: D); SHOW \"東京\";").unwrap();
        assert_eq!(
            stmts[0],
            Statement::CreateRelation {
                name: "Ünits".into(),
                attributes: vec![("x".into(), "D".into())],
            }
        );
        for s in &stmts {
            assert_eq!(parse(&s.to_string()).unwrap()[0], *s);
        }
    }
}
