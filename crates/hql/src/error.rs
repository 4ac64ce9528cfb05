//! Error type for HQL.
//!
//! The execution variants wrap the underlying crate errors *losslessly*
//! ([`HqlError::Core`] keeps the structured
//! [`CoreError`]; persistence failures keep their
//! stable kind code), so the unified `hrdm::Error` surface — and the
//! `hrdm-server` wire protocol's `ERR <kind>` replies — can classify
//! any failure without string matching.

use std::fmt;

use hrdm_core::CoreError;

/// Result alias used throughout the crate.
pub type Result<T, E = HqlError> = std::result::Result<T, E>;

/// Errors raised while lexing, parsing, or executing HQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HqlError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte position in the input.
        position: usize,
        /// What went wrong.
        message: String,
    },
    /// Parse error with the offending token and expectation.
    Parse {
        /// Rendered offending token (or "end of input").
        found: String,
        /// What the parser wanted.
        expected: String,
    },
    /// A named object (domain, relation, class, attribute) is missing.
    Unknown {
        /// Object category ("domain", "relation", …).
        kind: &'static str,
        /// The name as written.
        name: String,
    },
    /// An object with this name already exists.
    Duplicate {
        /// Object category.
        kind: &'static str,
        /// The name as written.
        name: String,
    },
    /// An error bubbled up from the core model, kept structured so the
    /// original kind survives into the unified error surface.
    Core(CoreError),
    /// An error from the persistence layer (SAVE/LOAD/OPEN/CHECKPOINT
    /// or WAL journaling). `PersistError` is not `Clone`, so the
    /// rendered message rides along with the stable kind code.
    Persist {
        /// The persistence error's stable kind code
        /// ([`hrdm_persist::PersistError::kind`]).
        kind: &'static str,
        /// Rendered error message.
        message: String,
    },
    /// A session-level execution error with no structured payload
    /// (ambiguous name resolution, statements that need an open store,
    /// unrecognized mode keywords, …).
    Execution(String),
    /// The statement is well-formed but cannot run against this object
    /// or backend (`DUMP` of a live view, …).
    Unsupported(String),
    /// A statement that needs a consistent relation found conflicts.
    Inconsistent {
        /// Relation involved.
        relation: String,
        /// Rendered conflicted items.
        conflicts: Vec<String>,
    },
}

impl HqlError {
    /// Stable machine-readable error-kind code. Structured variants
    /// forward the underlying crate's code (`CoreError::kind`,
    /// `PersistError::kind`); the wire protocol sends these verbatim,
    /// so existing codes must never change meaning.
    pub fn kind(&self) -> &'static str {
        match self {
            HqlError::Lex { .. } => "lex",
            HqlError::Parse { .. } => "parse",
            HqlError::Unknown { .. } => "unknown",
            HqlError::Duplicate { .. } => "duplicate",
            HqlError::Core(e) => e.kind(),
            HqlError::Persist { kind, .. } => kind,
            HqlError::Execution(_) => "execution",
            HqlError::Unsupported(_) => "unsupported",
            HqlError::Inconsistent { .. } => "conflict",
        }
    }
}

impl fmt::Display for HqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HqlError::Lex { position, message } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            HqlError::Parse { found, expected } => {
                write!(f, "parse error: expected {expected}, found {found}")
            }
            HqlError::Unknown { kind, name } => write!(f, "unknown {kind} {name:?}"),
            HqlError::Duplicate { kind, name } => write!(f, "{kind} {name:?} already exists"),
            HqlError::Core(e) => write!(f, "execution error: {e}"),
            HqlError::Persist { message, .. } => write!(f, "execution error: {message}"),
            HqlError::Execution(msg) => write!(f, "execution error: {msg}"),
            HqlError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            HqlError::Inconsistent {
                relation,
                conflicts,
            } => write!(
                f,
                "relation {relation:?} violates the ambiguity constraint at {} item(s): {}",
                conflicts.len(),
                conflicts.join(", ")
            ),
        }
    }
}

impl std::error::Error for HqlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HqlError::Core(e) => Some(e),
            _ => None,
        }
    }
}

/// A core failure in HQL's wording — the one place the catalog's
/// name-resolution outcomes are mapped: `NotFound` is HQL's `Unknown`
/// and `DuplicateName` its `Duplicate` (kinds `unknown` / `duplicate`
/// on the wire); everything else stays a structured [`HqlError::Core`].
impl From<CoreError> for HqlError {
    fn from(e: CoreError) -> HqlError {
        match e {
            CoreError::NotFound { kind, name } => HqlError::Unknown { kind, name },
            CoreError::DuplicateName { kind, name } => HqlError::Duplicate { kind, name },
            e => HqlError::Core(e),
        }
    }
}

impl From<hrdm_hierarchy::HierarchyError> for HqlError {
    fn from(e: hrdm_hierarchy::HierarchyError) -> HqlError {
        HqlError::Core(CoreError::Hierarchy(e))
    }
}

impl From<hrdm_persist::PersistError> for HqlError {
    fn from(e: hrdm_persist::PersistError) -> HqlError {
        HqlError::Persist {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = HqlError::Parse {
            found: "UNDER".into(),
            expected: "a relation name".into(),
        };
        assert!(e.to_string().contains("UNDER"));
        let e = HqlError::Unknown {
            kind: "domain",
            name: "Plant".into(),
        };
        assert!(e.to_string().contains("Plant"));
        let e = HqlError::Inconsistent {
            relation: "R".into(),
            conflicts: vec!["(a, b)".into()],
        };
        assert!(e.to_string().contains("1 item"));
        let e = HqlError::Execution("no store open".into());
        assert!(e.to_string().contains("no store open"));
    }

    #[test]
    fn conversions() {
        let c: HqlError = hrdm_core::CoreError::SchemaMismatch.into();
        assert_eq!(c, HqlError::Core(hrdm_core::CoreError::SchemaMismatch));
        assert!(std::error::Error::source(&c).is_some());
        let h: HqlError = hrdm_hierarchy::HierarchyError::NoParent.into();
        assert!(matches!(h, HqlError::Core(CoreError::Hierarchy(_))));
        let p: HqlError = hrdm_persist::PersistError::BadMagic.into();
        assert!(matches!(
            p,
            HqlError::Persist {
                kind: "bad-magic",
                ..
            }
        ));
    }

    #[test]
    fn kind_codes_are_stable() {
        let cases: Vec<(HqlError, &str)> = vec![
            (
                HqlError::Lex {
                    position: 0,
                    message: String::new(),
                },
                "lex",
            ),
            (
                HqlError::Parse {
                    found: String::new(),
                    expected: String::new(),
                },
                "parse",
            ),
            (
                HqlError::Unknown {
                    kind: "relation",
                    name: String::new(),
                },
                "unknown",
            ),
            (
                HqlError::Duplicate {
                    kind: "domain",
                    name: String::new(),
                },
                "duplicate",
            ),
            (HqlError::Core(CoreError::SchemaMismatch), "schema"),
            (
                HqlError::Persist {
                    kind: "io",
                    message: String::new(),
                },
                "io",
            ),
            (HqlError::Execution(String::new()), "execution"),
            (HqlError::Unsupported(String::new()), "unsupported"),
            (
                HqlError::Inconsistent {
                    relation: String::new(),
                    conflicts: vec![],
                },
                "conflict",
            ),
        ];
        for (e, code) in cases {
            assert_eq!(e.kind(), code, "{e}");
        }
    }
}
