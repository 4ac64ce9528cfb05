//! The HQL abstract syntax.

/// A value written in a tuple position: an instance/class name,
/// optionally universally quantified with `ALL` (the paper's `∀`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueRef {
    /// The node name as written.
    pub name: String,
    /// True when prefixed with `ALL` (purely documentary: a class name
    /// without `ALL` still denotes the class; `ALL` on an instance is
    /// harmless since instances are singleton classes).
    pub all: bool,
}

/// A written value resolves by its name alone (see
/// [`Schema::item`](hrdm_core::prelude::Schema::item)).
impl AsRef<str> for ValueRef {
    fn as_ref(&self) -> &str {
        &self.name
    }
}

/// One parsed HQL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE DOMAIN name`
    CreateDomain {
        /// Domain name.
        name: String,
    },
    /// `CREATE CLASS name UNDER parent, parent…`
    CreateClass {
        /// Class name.
        name: String,
        /// Parent class/domain names (resolved within one domain).
        parents: Vec<String>,
    },
    /// `CREATE INSTANCE name OF parent, parent…`
    CreateInstance {
        /// Instance name.
        name: String,
        /// Parent class names.
        parents: Vec<String>,
    },
    /// `PREFER stronger OVER weaker IN domain` (Appendix preference
    /// edges)
    Prefer {
        /// Dominating class.
        stronger: String,
        /// Dominated class.
        weaker: String,
        /// The domain holding both.
        domain: String,
    },
    /// `CREATE RELATION name (attr: domain, …)`
    CreateRelation {
        /// Relation name.
        name: String,
        /// Attribute name/domain pairs.
        attributes: Vec<(String, String)>,
    },
    /// `ASSERT [NOT] rel (value, …)`
    Assert {
        /// Relation name.
        relation: String,
        /// True for a negated tuple.
        negated: bool,
        /// Tuple values.
        values: Vec<ValueRef>,
    },
    /// `RETRACT rel (value, …)`
    Retract {
        /// Relation name.
        relation: String,
        /// Tuple values.
        values: Vec<ValueRef>,
    },
    /// `HOLDS rel (value, …)`
    Holds {
        /// Relation name.
        relation: String,
        /// Item values.
        values: Vec<ValueRef>,
    },
    /// `HOLDS3 rel (value, …)` — three-valued truth (§4: no closed
    /// world; unknown instead of false when nothing binds)
    Holds3 {
        /// Relation name.
        relation: String,
        /// Item values.
        values: Vec<ValueRef>,
    },
    /// `WHY rel (value, …)` — justification (Fig. 9)
    Why {
        /// Relation name.
        relation: String,
        /// Item values.
        values: Vec<ValueRef>,
    },
    /// `CHECK rel` — §3.1 ambiguity-constraint audit
    Check {
        /// Relation name.
        relation: String,
    },
    /// `SHOW rel`
    Show {
        /// Relation name.
        relation: String,
    },
    /// `SHOW DOMAIN name` — Graphviz DOT
    ShowDomain {
        /// Domain name.
        name: String,
    },
    /// `CONSOLIDATE rel` (§3.3.1, in place)
    Consolidate {
        /// Relation name.
        relation: String,
    },
    /// `EXPLICATE rel [ON attr, …]` (§3.3.2, in place)
    Explicate {
        /// Relation name.
        relation: String,
        /// Attribute names to explicate; empty means all.
        attrs: Vec<String>,
    },
    /// `SET PREEMPTION rel OFF-PATH|ON-PATH|NONE`
    SetPreemption {
        /// Relation name.
        relation: String,
        /// Mode keyword as written.
        mode: String,
    },
    /// `COUNT rel [BY attr]` — §3.3.2's statistical motivation
    Count {
        /// Relation name.
        relation: String,
        /// Optional group-by attribute.
        by: Option<String>,
    },
    /// `SAVE "path"` — snapshot the whole session to an HRDM1 image
    Save {
        /// Target file path.
        path: String,
    },
    /// `LOAD "path"` — restore a session snapshot (replaces current
    /// domains and relations)
    Load {
        /// Source file path.
        path: String,
    },
    /// `OPEN "dir" [SYNC EVERY n]` — attach the session to a durable
    /// store directory: recover (latest checkpoint + WAL replay), then
    /// journal every subsequent catalog mutation with group-commit
    /// batching of `n` appends per fsync (default 1: every append).
    Open {
        /// Store directory path.
        dir: String,
        /// Group-commit width; `None` means fsync every append.
        sync_every: Option<u64>,
    },
    /// `CHECKPOINT` — write a fresh checkpoint image of the open store
    /// and truncate its write-ahead log.
    Checkpoint,
    /// `LET name = <derivation>`
    Let {
        /// New relation name.
        name: String,
        /// The derivation expression.
        derivation: Derivation,
    },
    /// `EXPLAIN <derivation>` — show the optimized logical plan and the
    /// rewrite rules that fired, without materializing anything.
    Explain {
        /// The derivation expression to plan.
        derivation: Derivation,
    },
    /// `TRACE <derivation>` — run the optimized plan and render the
    /// recorded execution trace: per-node rows, wall time, and cache
    /// hit/miss attribution.
    Trace {
        /// The derivation expression to run and trace.
        derivation: Derivation,
    },
    /// `DROP DOMAIN name` — remove a domain no relation references.
    DropDomain {
        /// Domain name.
        name: String,
    },
    /// `DROP RELATION name` — remove a stored relation (and its live
    /// view definition, if it was a `LET` view).
    DropRelation {
        /// Relation name.
        name: String,
    },
    /// `RENAME RELATION old TO new`
    RenameRelation {
        /// Current relation name.
        from: String,
        /// New relation name.
        to: String,
    },
    /// `SHOW RELATIONS [OVER domain]` — the relation names in name
    /// order; with `OVER`, only those whose schema references `domain`.
    ShowRelations {
        /// Restrict the listing to relations over this domain.
        over: Option<String>,
    },
    /// `DUMP rel AS name` — export a stored relation as an HQL script
    /// that recreates it under `name` (schema, preemption mode, every
    /// tuple with its sign) on any engine holding the same domains.
    Dump {
        /// Relation name.
        relation: String,
        /// The name the script creates.
        to: String,
    },
}

/// The fieldless discriminant of a [`Statement`] — the key the
/// executor's dispatch table is indexed by, and the unit of the
/// read/write classification the concurrent engine schedules on.
///
/// The discriminant values are the dispatch-table indexes; keep the
/// order in sync with `engine::DISPATCH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum StatementKind {
    /// `CREATE DOMAIN`
    CreateDomain = 0,
    /// `CREATE CLASS`
    CreateClass = 1,
    /// `CREATE INSTANCE`
    CreateInstance = 2,
    /// `PREFER … OVER … IN …`
    Prefer = 3,
    /// `CREATE RELATION`
    CreateRelation = 4,
    /// `ASSERT [NOT]`
    Assert = 5,
    /// `RETRACT`
    Retract = 6,
    /// `HOLDS`
    Holds = 7,
    /// `HOLDS3`
    Holds3 = 8,
    /// `WHY`
    Why = 9,
    /// `CHECK`
    Check = 10,
    /// `SHOW`
    Show = 11,
    /// `SHOW DOMAIN`
    ShowDomain = 12,
    /// `CONSOLIDATE` (in place)
    Consolidate = 13,
    /// `EXPLICATE` (in place)
    Explicate = 14,
    /// `SET PREEMPTION`
    SetPreemption = 15,
    /// `COUNT`
    Count = 16,
    /// `SAVE`
    Save = 17,
    /// `LOAD`
    Load = 18,
    /// `OPEN`
    Open = 19,
    /// `CHECKPOINT`
    Checkpoint = 20,
    /// `LET`
    Let = 21,
    /// `EXPLAIN`
    Explain = 22,
    /// `TRACE`
    Trace = 23,
    /// `DROP DOMAIN`
    DropDomain = 24,
    /// `DROP RELATION`
    DropRelation = 25,
    /// `RENAME RELATION`
    RenameRelation = 26,
    /// `SHOW RELATIONS`
    ShowRelations = 27,
    /// `DUMP`
    Dump = 28,
}

/// Number of statement kinds (= dispatch-table length).
pub const STATEMENT_KINDS: usize = 29;

impl StatementKind {
    /// Does this statement leave the session state untouched?
    ///
    /// Read-only statements execute against an immutable catalog
    /// snapshot — many in parallel — while mutating statements funnel
    /// through the engine's single writer. `SAVE` is classified as a
    /// read: it writes a file but never changes the session state, so
    /// it can snapshot concurrently with other readers.
    pub fn is_read_only(self) -> bool {
        matches!(
            self,
            StatementKind::Holds
                | StatementKind::Holds3
                | StatementKind::Why
                | StatementKind::Check
                | StatementKind::Show
                | StatementKind::ShowDomain
                | StatementKind::Count
                | StatementKind::Save
                | StatementKind::Explain
                | StatementKind::Trace
                | StatementKind::ShowRelations
                | StatementKind::Dump
        )
    }

    /// Is this a point read: one item bound against one relation's
    /// class-level tuples (`HOLDS`, `HOLDS3`, `WHY`)?
    ///
    /// Point reads never scan an extension, so their cost is a handful
    /// of tuple bindings whatever the relation's size; the serving tier
    /// runs scripts made only of them to completion on its readiness
    /// loop instead of handing them to a worker. Every point read is
    /// read-only.
    pub fn is_point_read(self) -> bool {
        matches!(
            self,
            StatementKind::Holds | StatementKind::Holds3 | StatementKind::Why
        )
    }
}

impl Statement {
    /// The fieldless discriminant of this statement.
    pub fn kind(&self) -> StatementKind {
        match self {
            Statement::CreateDomain { .. } => StatementKind::CreateDomain,
            Statement::CreateClass { .. } => StatementKind::CreateClass,
            Statement::CreateInstance { .. } => StatementKind::CreateInstance,
            Statement::Prefer { .. } => StatementKind::Prefer,
            Statement::CreateRelation { .. } => StatementKind::CreateRelation,
            Statement::Assert { .. } => StatementKind::Assert,
            Statement::Retract { .. } => StatementKind::Retract,
            Statement::Holds { .. } => StatementKind::Holds,
            Statement::Holds3 { .. } => StatementKind::Holds3,
            Statement::Why { .. } => StatementKind::Why,
            Statement::Check { .. } => StatementKind::Check,
            Statement::Show { .. } => StatementKind::Show,
            Statement::ShowDomain { .. } => StatementKind::ShowDomain,
            Statement::Consolidate { .. } => StatementKind::Consolidate,
            Statement::Explicate { .. } => StatementKind::Explicate,
            Statement::SetPreemption { .. } => StatementKind::SetPreemption,
            Statement::Count { .. } => StatementKind::Count,
            Statement::Save { .. } => StatementKind::Save,
            Statement::Load { .. } => StatementKind::Load,
            Statement::Open { .. } => StatementKind::Open,
            Statement::Checkpoint => StatementKind::Checkpoint,
            Statement::Let { .. } => StatementKind::Let,
            Statement::Explain { .. } => StatementKind::Explain,
            Statement::Trace { .. } => StatementKind::Trace,
            Statement::DropDomain { .. } => StatementKind::DropDomain,
            Statement::DropRelation { .. } => StatementKind::DropRelation,
            Statement::RenameRelation { .. } => StatementKind::RenameRelation,
            Statement::ShowRelations { .. } => StatementKind::ShowRelations,
            Statement::Dump { .. } => StatementKind::Dump,
        }
    }

    /// Shorthand for `self.kind().is_read_only()`.
    pub fn is_read_only(&self) -> bool {
        self.kind().is_read_only()
    }
}

/// An operand of a derivation: a stored relation by name, or a nested
/// derivation in parentheses (so a whole query tree is one statement and
/// the planner can rewrite across the composition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A stored relation referenced by name.
    Named(String),
    /// `( <derivation> )`
    Derived(Box<Derivation>),
}

impl Source {
    /// Convenience constructor for a named operand.
    pub fn named(name: impl Into<String>) -> Source {
        Source::Named(name.into())
    }
}

/// Right-hand sides of `LET` statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Derivation {
    /// `UNION a b`
    Union(Source, Source),
    /// `INTERSECT a b`
    Intersect(Source, Source),
    /// `DIFFERENCE a b`
    Difference(Source, Source),
    /// `JOIN a b`
    Join(Source, Source),
    /// `PROJECT a (attr, …)`
    Project(Source, Vec<String>),
    /// `SELECT a WHERE attr IS value AND …`
    Select(Source, Vec<(String, ValueRef)>),
    /// `CONSOLIDATE a` (derive, don't mutate)
    Consolidated(Source),
    /// `EXPLICATE a [ON attrs]` (derive, don't mutate)
    Explicated(Source, Vec<String>),
}

use std::fmt;

/// Quote a name when it cannot stand as a bare word (or could be
/// absorbed as a keyword by the surrounding rule); anything uncertain
/// gets quoted.
fn quoted(name: &str) -> String {
    let bare_ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        && !name.contains("--")
        && ![
            "all", "not", "under", "of", "over", "in", "on", "by", "where", "is", "and", "domain",
            "to", "relation",
        ]
        .contains(&name.to_ascii_lowercase().as_str())
        && !name.eq_ignore_ascii_case("relations");
    if bare_ok {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\\\""))
    }
}

impl fmt::Display for ValueRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.all {
            write!(f, "ALL {}", quoted(&self.name))
        } else {
            write!(f, "{}", quoted(&self.name))
        }
    }
}

fn tuple(values: &[ValueRef]) -> String {
    let parts: Vec<String> = values.iter().map(ValueRef::to_string).collect();
    format!("({})", parts.join(", "))
}

/// Comma-separated names, quoted where needed — a parent or attribute
/// list, and the body of a `SHOW RELATIONS` listing.
pub(crate) fn names(list: &[String]) -> String {
    list.iter()
        .map(|n| quoted(n))
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateDomain { name } => {
                write!(f, "CREATE DOMAIN {};", quoted(name))
            }
            Statement::CreateClass { name, parents } => {
                write!(f, "CREATE CLASS {} UNDER {};", quoted(name), names(parents))
            }
            Statement::CreateInstance { name, parents } => {
                write!(f, "CREATE INSTANCE {} OF {};", quoted(name), names(parents))
            }
            Statement::Prefer {
                stronger,
                weaker,
                domain,
            } => write!(
                f,
                "PREFER {} OVER {} IN {};",
                quoted(stronger),
                quoted(weaker),
                quoted(domain)
            ),
            Statement::CreateRelation { name, attributes } => {
                let attrs: Vec<String> = attributes
                    .iter()
                    .map(|(a, d)| format!("{}: {}", quoted(a), quoted(d)))
                    .collect();
                write!(
                    f,
                    "CREATE RELATION {} ({});",
                    quoted(name),
                    attrs.join(", ")
                )
            }
            Statement::Assert {
                relation,
                negated,
                values,
            } => write!(
                f,
                "ASSERT {}{} {};",
                if *negated { "NOT " } else { "" },
                quoted(relation),
                tuple(values)
            ),
            Statement::Retract { relation, values } => {
                write!(f, "RETRACT {} {};", quoted(relation), tuple(values))
            }
            Statement::Holds { relation, values } => {
                write!(f, "HOLDS {} {};", quoted(relation), tuple(values))
            }
            Statement::Holds3 { relation, values } => {
                write!(f, "HOLDS3 {} {};", quoted(relation), tuple(values))
            }
            Statement::Why { relation, values } => {
                write!(f, "WHY {} {};", quoted(relation), tuple(values))
            }
            Statement::Check { relation } => write!(f, "CHECK {};", quoted(relation)),
            Statement::Show { relation } => write!(f, "SHOW {};", quoted(relation)),
            Statement::ShowDomain { name } => write!(f, "SHOW DOMAIN {};", quoted(name)),
            Statement::Consolidate { relation } => {
                write!(f, "CONSOLIDATE {};", quoted(relation))
            }
            Statement::Explicate { relation, attrs } => {
                if attrs.is_empty() {
                    write!(f, "EXPLICATE {};", quoted(relation))
                } else {
                    write!(f, "EXPLICATE {} ON {};", quoted(relation), names(attrs))
                }
            }
            Statement::SetPreemption { relation, mode } => {
                write!(f, "SET PREEMPTION {} {};", quoted(relation), mode)
            }
            Statement::Count { relation, by } => match by {
                Some(attr) => write!(f, "COUNT {} BY {};", quoted(relation), quoted(attr)),
                None => write!(f, "COUNT {};", quoted(relation)),
            },
            Statement::Save { path } => write!(f, "SAVE {};", quoted(path)),
            Statement::Load { path } => write!(f, "LOAD {};", quoted(path)),
            Statement::Open { dir, sync_every } => match sync_every {
                Some(n) => write!(f, "OPEN {} SYNC EVERY {n};", quoted(dir)),
                None => write!(f, "OPEN {};", quoted(dir)),
            },
            Statement::Checkpoint => write!(f, "CHECKPOINT;"),
            Statement::Let { name, derivation } => {
                write!(f, "LET {} = {};", quoted(name), derivation)
            }
            Statement::Explain { derivation } => {
                write!(f, "EXPLAIN {derivation};")
            }
            Statement::Trace { derivation } => {
                write!(f, "TRACE {derivation};")
            }
            Statement::DropDomain { name } => write!(f, "DROP DOMAIN {};", quoted(name)),
            Statement::DropRelation { name } => write!(f, "DROP RELATION {};", quoted(name)),
            Statement::RenameRelation { from, to } => {
                write!(f, "RENAME RELATION {} TO {};", quoted(from), quoted(to))
            }
            Statement::ShowRelations { over: None } => write!(f, "SHOW RELATIONS;"),
            Statement::ShowRelations { over: Some(d) } => {
                write!(f, "SHOW RELATIONS OVER {};", quoted(d))
            }
            Statement::Dump { relation, to } => {
                write!(f, "DUMP {} AS {};", quoted(relation), quoted(to))
            }
        }
    }
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Named(name) => write!(f, "{}", quoted(name)),
            Source::Derived(d) => write!(f, "({d})"),
        }
    }
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Derivation::Union(a, b) => write!(f, "UNION {a} {b}"),
            Derivation::Intersect(a, b) => write!(f, "INTERSECT {a} {b}"),
            Derivation::Difference(a, b) => write!(f, "DIFFERENCE {a} {b}"),
            Derivation::Join(a, b) => write!(f, "JOIN {a} {b}"),
            Derivation::Project(a, attrs) => {
                write!(f, "PROJECT {} ({})", a, names(attrs))
            }
            Derivation::Select(a, conds) => {
                let cs: Vec<String> = conds
                    .iter()
                    .map(|(attr, v)| format!("{} IS {}", quoted(attr), v))
                    .collect();
                write!(f, "SELECT {} WHERE {}", a, cs.join(" AND "))
            }
            Derivation::Consolidated(a) => write!(f, "CONSOLIDATE {a}"),
            Derivation::Explicated(a, attrs) => {
                if attrs.is_empty() {
                    write!(f, "EXPLICATE {a}")
                } else {
                    write!(f, "EXPLICATE {} ON {}", a, names(attrs))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_ref_equality() {
        let a = ValueRef {
            name: "Bird".into(),
            all: true,
        };
        let b = ValueRef {
            name: "Bird".into(),
            all: false,
        };
        assert_ne!(a, b);
    }

    #[test]
    fn statements_are_cloneable_and_comparable() {
        let s = Statement::CreateDomain {
            name: "Animal".into(),
        };
        assert_eq!(s.clone(), s);
        let d = Derivation::Union(Source::named("A"), Source::named("B"));
        assert_eq!(d.clone(), d);
    }

    #[test]
    fn open_and_checkpoint_render() {
        let s = Statement::Open {
            dir: "db".into(),
            sync_every: None,
        };
        assert_eq!(s.to_string(), "OPEN db;");
        let s = Statement::Open {
            dir: "/tmp/x".into(),
            sync_every: Some(4),
        };
        assert_eq!(s.to_string(), "OPEN \"/tmp/x\" SYNC EVERY 4;");
        assert_eq!(Statement::Checkpoint.to_string(), "CHECKPOINT;");
    }

    #[test]
    fn nested_sources_render_parenthesized() {
        let d = Derivation::Select(
            Source::Derived(Box::new(Derivation::Explicated(
                Source::named("Flies"),
                vec![],
            ))),
            vec![(
                "Creature".into(),
                ValueRef {
                    name: "Penguin".into(),
                    all: true,
                },
            )],
        );
        assert_eq!(
            d.to_string(),
            "SELECT (EXPLICATE Flies) WHERE Creature IS ALL Penguin"
        );
        let e = Statement::Explain {
            derivation: d.clone(),
        };
        assert!(e.to_string().starts_with("EXPLAIN SELECT (EXPLICATE"));
        let t = Statement::Trace { derivation: d };
        assert!(t.to_string().starts_with("TRACE SELECT (EXPLICATE"));
    }
}
