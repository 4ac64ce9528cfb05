//! Logical catalog mutations: the replayable change vocabulary.
//!
//! Every way a [`Catalog`](crate::catalog::Catalog) can change is
//! described by one [`CatalogMutation`] value — a *logical* record
//! (names, not node ids or pointers), so a sequence of mutations can be
//! journaled, shipped, and replayed onto a fresh catalog to rebuild the
//! exact same state. The persistence layer's write-ahead log is a
//! framed stream of these values; crash recovery is
//! `checkpoint ∘ replay(prefix)`.
//!
//! Two invariants make the replay sound:
//!
//! * **Determinism** — applying the same mutation sequence to equal
//!   catalogs yields equal catalogs (node ids are assigned densely in
//!   insertion order, so even `NodeId`s agree).
//! * **Atomicity** — [`Catalog::apply_mutation`](crate::catalog::Catalog::apply_mutation)
//!   either applies the
//!   whole mutation or returns an error leaving the catalog unchanged.

use std::fmt;

use crate::preemption::Preemption;
use crate::truth::Truth;

/// One logical, replayable change to a catalog.
///
/// All references are by name: a mutation is meaningful on any catalog
/// holding objects with those names, which is exactly what recovery
/// needs (the restored catalog's `Arc`s are new, its names are not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogMutation {
    /// Create an empty domain hierarchy (root node named after it).
    CreateDomain {
        /// Domain name.
        name: String,
    },
    /// Remove a domain (relations over it keep their shared handles).
    DropDomain {
        /// Domain name.
        name: String,
    },
    /// Add a class under one or more existing parents.
    AddClass {
        /// Owning domain.
        domain: String,
        /// New class name.
        name: String,
        /// Parent class/domain names (at least one).
        parents: Vec<String>,
    },
    /// Add an instance under one or more existing parents.
    AddInstance {
        /// Owning domain.
        domain: String,
        /// New instance name.
        name: String,
        /// Parent class names (at least one).
        parents: Vec<String>,
    },
    /// Add an Appendix preference edge (`stronger` dominates `weaker`).
    Prefer {
        /// Owning domain.
        domain: String,
        /// Dominating class.
        stronger: String,
        /// Dominated class.
        weaker: String,
    },
    /// Create an empty relation over named attribute/domain pairs.
    CreateRelation {
        /// Relation name.
        name: String,
        /// `(attribute, domain)` name pairs.
        attributes: Vec<(String, String)>,
    },
    /// Remove a relation.
    DropRelation {
        /// Relation name.
        name: String,
    },
    /// Assert a fact with an explicit truth value. Losing a
    /// `Truth::Negative` record on crash would silently *widen* the
    /// explicated extension, which is why assertion records carry the
    /// sign rather than defaulting it.
    Assert {
        /// Relation name.
        relation: String,
        /// Tuple value names, one per attribute.
        values: Vec<String>,
        /// The asserted truth value.
        truth: Truth,
    },
    /// Retract a stored fact.
    Retract {
        /// Relation name.
        relation: String,
        /// Tuple value names, one per attribute.
        values: Vec<String>,
    },
    /// Change a relation's preemption mode.
    SetPreemption {
        /// Relation name.
        relation: String,
        /// The new mode.
        mode: Preemption,
    },
}

/// An empty `CreateDomain`, holding no heap storage: the blank a log
/// reader decodes records into.
impl Default for CatalogMutation {
    fn default() -> CatalogMutation {
        CatalogMutation::CreateDomain {
            name: String::new(),
        }
    }
}

impl CatalogMutation {
    /// Short tag for metrics/trace labels (`"assert"`, `"add-class"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            CatalogMutation::CreateDomain { .. } => "create-domain",
            CatalogMutation::DropDomain { .. } => "drop-domain",
            CatalogMutation::AddClass { .. } => "add-class",
            CatalogMutation::AddInstance { .. } => "add-instance",
            CatalogMutation::Prefer { .. } => "prefer",
            CatalogMutation::CreateRelation { .. } => "create-relation",
            CatalogMutation::DropRelation { .. } => "drop-relation",
            CatalogMutation::Assert { .. } => "assert",
            CatalogMutation::Retract { .. } => "retract",
            CatalogMutation::SetPreemption { .. } => "set-preemption",
        }
    }
}

impl fmt::Display for CatalogMutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogMutation::CreateDomain { name } => write!(f, "CREATE DOMAIN {name}"),
            CatalogMutation::DropDomain { name } => write!(f, "DROP DOMAIN {name}"),
            CatalogMutation::AddClass {
                domain,
                name,
                parents,
            } => write!(
                f,
                "ADD CLASS {name} UNDER {} IN {domain}",
                parents.join(", ")
            ),
            CatalogMutation::AddInstance {
                domain,
                name,
                parents,
            } => write!(
                f,
                "ADD INSTANCE {name} OF {} IN {domain}",
                parents.join(", ")
            ),
            CatalogMutation::Prefer {
                domain,
                stronger,
                weaker,
            } => write!(f, "PREFER {stronger} OVER {weaker} IN {domain}"),
            CatalogMutation::CreateRelation { name, attributes } => {
                let attrs: Vec<String> = attributes
                    .iter()
                    .map(|(a, d)| format!("{a}: {d}"))
                    .collect();
                write!(f, "CREATE RELATION {name} ({})", attrs.join(", "))
            }
            CatalogMutation::DropRelation { name } => write!(f, "DROP RELATION {name}"),
            CatalogMutation::Assert {
                relation,
                values,
                truth,
            } => write!(
                f,
                "ASSERT {} {relation} ({})",
                truth.sign(),
                values.join(", ")
            ),
            CatalogMutation::Retract { relation, values } => {
                write!(f, "RETRACT {relation} ({})", values.join(", "))
            }
            CatalogMutation::SetPreemption { relation, mode } => {
                write!(f, "SET PREEMPTION {relation} {mode}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_change() {
        let m = CatalogMutation::Assert {
            relation: "Flies".into(),
            values: vec!["Bird".into()],
            truth: Truth::Negative,
        };
        assert_eq!(m.to_string(), "ASSERT - Flies (Bird)");
        assert_eq!(m.kind(), "assert");
        let m = CatalogMutation::AddClass {
            domain: "Animal".into(),
            name: "Bird".into(),
            parents: vec!["Animal".into()],
        };
        assert!(m.to_string().contains("UNDER Animal"));
        let m = CatalogMutation::CreateRelation {
            name: "R".into(),
            attributes: vec![("V".into(), "D".into())],
        };
        assert_eq!(m.to_string(), "CREATE RELATION R (V: D)");
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            CatalogMutation::CreateDomain { name: "D".into() }.kind(),
            CatalogMutation::DropDomain { name: "D".into() }.kind(),
            CatalogMutation::DropRelation { name: "R".into() }.kind(),
            CatalogMutation::SetPreemption {
                relation: "R".into(),
                mode: Preemption::OnPath,
            }
            .kind(),
        ];
        let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }
}
