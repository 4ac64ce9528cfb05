#![warn(missing_docs)]

//! HQL — a textual interface to the hierarchical relational model.
//!
//! §1 of the paper: "The intent of this paper is to present a data model
//! that can serve as a standard interface providing 'higher level'
//! primitive operators than a standard relational model would in support
//! of hierarchy." HQL is that interface as a language: DDL for domains,
//! classes, instances, and relations; truth-valued assertions with the
//! paper's `ALL` (∀) class values; binding queries with justification;
//! the two new physical operators (`CONSOLIDATE`, `EXPLICATE`); and the
//! standard operators as derivation statements.
//!
//! # Statement overview
//!
//! ```text
//! CREATE DOMAIN Animal;
//! CREATE CLASS Bird UNDER Animal;
//! CREATE CLASS "Amazing Flying Penguin" UNDER Penguin;
//! CREATE INSTANCE Patricia OF "Galapagos Penguin", "Amazing Flying Penguin";
//! PREFER ClassA OVER ClassB IN Animal;
//!
//! CREATE RELATION Flies (Creature: Animal);
//! ASSERT Flies (ALL Bird);
//! ASSERT NOT Flies (ALL Penguin);
//! RETRACT Flies (ALL Penguin);
//!
//! HOLDS Flies (Tweety);            -- closed-world truth
//! WHY Flies (Paul);                -- justification (Fig. 9)
//! CHECK Flies;                     -- ambiguity-constraint audit (§3.1)
//! SHOW Flies;                      -- paper-style table
//! SHOW DOMAIN Animal;              -- Graphviz DOT
//! SHOW RELATIONS OVER Animal;      -- relation names (OVER optional)
//! DUMP Flies AS Flying;            -- the script recreating Flies as Flying
//!
//! CONSOLIDATE Flies;               -- §3.3.1 (in place)
//! EXPLICATE Flies;                 -- §3.3.2 (in place; optional ON attrs)
//!
//! LET Loved = UNION JackLoves JillLoves;
//! LET Both  = INTERSECT JackLoves JillLoves;
//! LET OnlyJ = DIFFERENCE JackLoves JillLoves;
//! LET Full  = JOIN Sizes Colors;
//! LET Names = PROJECT Full (Animal, Color);
//! LET Sub   = SELECT Respects WHERE Student IS ALL "Obsequious Student";
//! SET PREEMPTION Flies ON-PATH;    -- Appendix ablation
//! ```
//!
//! Identifiers are bare words; names with spaces are `"quoted"`.
//! Keywords are case-insensitive; statements end with `;` (optional for
//! single statements). `--` starts a comment.

pub mod ast;
pub mod engine;
pub mod error;
pub mod exec;
pub mod executor;
pub mod lexer;
pub mod parser;
pub mod replica;
pub mod shard;
pub mod world;

pub use ast::{Statement, StatementKind};
pub use engine::{Engine, ReadView};
pub use error::{HqlError, Result};
pub use exec::Response;
pub use executor::{render, ExecError, ExecResult, ExecutorHandle};
pub use replica::Replica;
pub use shard::{default_shard, Router, ShardedEngine};
pub use world::World;

/// Parse and execute one or more statements against a fresh engine.
///
/// Convenience for tests and doctests; real applications keep an
/// [`Engine`] alive (clone it across threads; read borrowed state
/// through [`Engine::snapshot`]).
///
/// ```
/// use hrdm_hql::Engine;
/// let engine = Engine::new();
/// engine.execute("CREATE DOMAIN Animal;").unwrap();
/// engine.execute("CREATE CLASS Bird UNDER Animal;").unwrap();
/// engine.execute("CREATE INSTANCE Tweety OF Bird;").unwrap();
/// engine.execute("CREATE RELATION Flies (Creature: Animal);").unwrap();
/// engine.execute("ASSERT Flies (ALL Bird);").unwrap();
/// let out = engine.execute("HOLDS Flies (Tweety);").unwrap();
/// assert!(out.iter().any(|r| r.to_string().contains("true")));
/// assert_eq!(engine.snapshot().relation("Flies").unwrap().len(), 1);
/// ```
pub fn run(script: &str) -> Result<Vec<Response>> {
    Engine::new().execute(script)
}
