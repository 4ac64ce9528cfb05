//! Name-level derivations and the one planner that turns them into a
//! [`LogicalPlan`].
//!
//! A [`Derivation`] is the right-hand side of HQL's `LET`, `EXPLAIN`
//! and `TRACE` as written: operators over [`Source`]s that name stored
//! relations or nest further derivations. It lives here, beside the
//! plan it compiles to, because a live view is a relation stored as its
//! definition (Litwin, *Stored and Inherited Relations*): the catalog
//! keeps the derivation, the write-ahead log carries it in a
//! `DefineView` record, and recovery, a replica and the live engine all
//! rebuild the view by planning it here against the catalog
//! ([`Catalog::plan`]).
//!
//! `Display` renders a derivation as the HQL text that parses back to
//! it; [`quoted`] is the quoting rule it shares with the statement
//! printer.

use std::fmt;
use std::sync::Arc;

use crate::catalog::Catalog;
use crate::differential::MaterializedPlan;
use crate::error::Result;
use crate::plan::{render_rewrites, Executed, LogicalPlan, Rewrite};

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
/// [`Schema::item`](crate::schema::Schema::item)).
impl AsRef<str> for ValueRef {
    fn as_ref(&self) -> &str {
        &self.name
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

impl Derivation {
    /// The deepest nesting the parser accepts and a log or image
    /// decoder reads back: a bound on the recursion both do, so hostile
    /// input cannot exhaust the stack, and a derivation that was
    /// accepted can always be replayed.
    pub const MAX_DEPTH: usize = 64;

    /// The operands, in the order written.
    pub fn sources(&self) -> impl Iterator<Item = &Source> {
        let (a, b) = match self {
            Derivation::Union(a, b)
            | Derivation::Intersect(a, b)
            | Derivation::Difference(a, b)
            | Derivation::Join(a, b) => (a, Some(b)),
            Derivation::Project(a, _)
            | Derivation::Select(a, _)
            | Derivation::Consolidated(a)
            | Derivation::Explicated(a, _) => (a, None),
        };
        std::iter::once(a).chain(b)
    }
}

/// Quote a name when it cannot stand as a bare HQL word (or could be
/// absorbed as a keyword by the surrounding rule); anything uncertain
/// gets quoted.
pub fn quoted(name: &str) -> String {
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

/// Comma-separated names, quoted where needed — a parent or attribute
/// list, and the body of a `SHOW RELATIONS` listing.
pub fn names(list: &[String]) -> String {
    list.iter()
        .map(|n| quoted(n))
        .collect::<Vec<_>>()
        .join(", ")
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

/// A derivation as the engine runs it — the one plan `EXPLAIN` prints,
/// `TRACE` executes, `LET` materializes and view maintenance rebuilds
/// from. Built by [`Catalog::plan`] and nowhere else.
pub struct Planned {
    /// The rule-optimized plan.
    pub(crate) plan: LogicalPlan,
    /// The rewrites [`LogicalPlan::optimize`] applied, in order.
    rewrites: Vec<Rewrite>,
    /// Whether the result is the root node's output as written rather
    /// than its canonical (consolidated, §3.3.1) form: true exactly for
    /// a top-level `EXPLICATE`, whose whole point is the explicit,
    /// non-minimal form the root consolidate would collapse straight
    /// back.
    raw: bool,
}

impl Planned {
    /// The `EXPLAIN` body: the plan tree and the rewrite log.
    pub fn explain(&self) -> String {
        self.plan.render() + &self.rewrites()
    }

    /// The `rewrites applied:` trailer.
    pub fn rewrites(&self) -> String {
        render_rewrites(&self.rewrites)
    }

    /// Run the plan once, keeping its span tree (`TRACE`).
    pub fn execute(&self) -> Result<Executed> {
        if self.raw {
            self.plan.execute_raw()
        } else {
            self.plan.execute()
        }
    }

    /// Run the plan once, keeping every node's output so the result can
    /// be maintained under deltas (`LET` and the recompute fallback).
    pub(crate) fn materialize(self) -> Result<MaterializedPlan> {
        if self.raw {
            MaterializedPlan::new_raw(self.plan)
        } else {
            MaterializedPlan::new(self.plan)
        }
    }
}

impl Catalog {
    /// The plan that runs for `derivation`: its operator tree over this
    /// catalog's relations, rule-optimized. Plan execution returns the
    /// *canonical* (consolidated, §3.3.1) relation of the query's flat
    /// model, with one exception handled here and nowhere else: a
    /// top-level `EXPLICATE` is run raw. Its operand is explicated as
    /// the user would see it bound — a named relation as stored, a
    /// nested derivation in its canonical form (an explicit
    /// `Consolidate` node, unless that derivation is itself a raw
    /// `EXPLICATE`).
    pub fn plan(&self, derivation: &Derivation) -> Result<Planned> {
        let (written, raw) = self.written(derivation)?;
        let (plan, rewrites) = written.optimize();
        Ok(Planned {
            plan,
            rewrites,
            raw,
        })
    }

    /// `derivation` as an unoptimized plan, and whether it runs raw.
    fn written(&self, derivation: &Derivation) -> Result<(LogicalPlan, bool)> {
        let Derivation::Explicated(src, attrs) = derivation else {
            return Ok((self.plan_of(derivation)?, false));
        };
        let operand = match src {
            Source::Named(_) => self.source_plan(src)?,
            Source::Derived(inner) => match self.written(inner)? {
                (plan, true) => plan,
                (plan, false) => plan.consolidate(),
            },
        };
        Ok((explicate_plan(operand, attrs)?, true))
    }

    /// An operand as a plan node: scans stay leaves (sharing the stored
    /// relation, not copying it), nested derivations inline into the
    /// surrounding tree so rewrites can cross them.
    fn source_plan(&self, src: &Source) -> Result<LogicalPlan> {
        match src {
            Source::Named(name) => Ok(LogicalPlan::Scan {
                name: name.clone(),
                relation: Arc::clone(self.relation_arc(name)?),
            }),
            Source::Derived(inner) => self.plan_of(inner),
        }
    }

    /// Build the logical plan of a derivation (no execution). Attribute
    /// names resolve against the plan's inferred output schema, so
    /// projections and explications over nested derivations see the
    /// composed layout (e.g. a join's merged attribute list).
    fn plan_of(&self, derivation: &Derivation) -> Result<LogicalPlan> {
        Ok(match derivation {
            Derivation::Union(a, b) => self.source_plan(a)?.union(self.source_plan(b)?),
            Derivation::Intersect(a, b) => self.source_plan(a)?.intersect(self.source_plan(b)?),
            Derivation::Difference(a, b) => self.source_plan(a)?.diff(self.source_plan(b)?),
            Derivation::Join(a, b) => self.source_plan(a)?.join(self.source_plan(b)?),
            Derivation::Project(a, attrs) => {
                let p = self.source_plan(a)?;
                let schema = p.output_schema()?;
                let indexes = attrs
                    .iter()
                    .map(|n| schema.index_of(n))
                    .collect::<Result<Vec<_>>>()?;
                p.project(indexes)
            }
            Derivation::Select(a, conds) => {
                let mut p = self.source_plan(a)?;
                for (attr, value) in conds {
                    p = p.select_eq(attr.clone(), value.name.clone());
                }
                p
            }
            Derivation::Consolidated(a) => self.source_plan(a)?.consolidate(),
            Derivation::Explicated(a, attrs) => explicate_plan(self.source_plan(a)?, attrs)?,
        })
    }
}

/// `EXPLICATE operand ON attrs` as a plan node; no attributes means all.
fn explicate_plan(operand: LogicalPlan, attrs: &[String]) -> Result<LogicalPlan> {
    let schema = operand.output_schema()?;
    let indexes = if attrs.is_empty() {
        (0..schema.arity()).collect()
    } else {
        attrs
            .iter()
            .map(|n| schema.index_of(n))
            .collect::<Result<Vec<_>>>()?
    };
    Ok(operand.explicate(indexes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_come_in_written_order_and_keywords_are_quoted() {
        let u = Derivation::Union(Source::named("A"), Source::named("on"));
        assert_eq!(u.to_string(), "UNION A \"on\"");
        let sources: Vec<String> = u.sources().map(ToString::to_string).collect();
        assert_eq!(sources, ["A", "\"on\""]);
        let c = Derivation::Consolidated(Source::Derived(Box::new(u)));
        assert_eq!(c.sources().count(), 1);
        assert_eq!(c.to_string(), "CONSOLIDATE (UNION A \"on\")");
    }
}
