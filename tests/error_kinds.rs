//! The `kind()` wire vocabulary of the unified error surface.
//!
//! `hrdm-server` sends `ERR <kind>` replies built from
//! [`hrdm::Error::kind`], so every leaf error variant across the
//! wrapped crates must map to a **stable** code, and two different
//! failure conditions must never silently collapse onto the same code
//! unless that sharing is deliberate. This test enumerates one
//! representative of every variant, pins its code against a golden
//! table, and checks cross-variant collisions against an explicit
//! allowlist — adding a variant without extending the table fails here,
//! as does changing any existing code.

use std::collections::BTreeMap;

use hrdm::core::{CoreError, Item};
use hrdm::hierarchy::{HierarchyError, NodeId};
use hrdm::hql::HqlError;
use hrdm::persist::PersistError;
use hrdm::Error;

fn item() -> Item {
    Item::new(vec![NodeId::ROOT])
}

/// One representative per leaf variant, with its golden kind code.
/// Order: hierarchy, core, hql, persist — the facade's own variants.
fn representatives() -> Vec<(&'static str, Error, &'static str)> {
    vec![
        // hrdm-hierarchy: every variant classifies as "hierarchy".
        (
            "Hierarchy::UnknownNode",
            HierarchyError::UnknownNode(NodeId::ROOT).into(),
            "hierarchy",
        ),
        (
            "Hierarchy::UnknownName",
            HierarchyError::UnknownName("x".into()).into(),
            "hierarchy",
        ),
        (
            "Hierarchy::DuplicateName",
            HierarchyError::DuplicateName("x".into()).into(),
            "hierarchy",
        ),
        (
            "Hierarchy::WouldCreateCycle",
            HierarchyError::WouldCreateCycle {
                from: NodeId::ROOT,
                to: NodeId::ROOT,
            }
            .into(),
            "hierarchy",
        ),
        (
            "Hierarchy::DuplicateEdge",
            HierarchyError::DuplicateEdge {
                from: NodeId::ROOT,
                to: NodeId::ROOT,
            }
            .into(),
            "hierarchy",
        ),
        (
            "Hierarchy::SelfEdge",
            HierarchyError::SelfEdge(NodeId::ROOT).into(),
            "hierarchy",
        ),
        (
            "Hierarchy::InstanceHasChildren",
            HierarchyError::InstanceHasChildren(NodeId::ROOT).into(),
            "hierarchy",
        ),
        (
            "Hierarchy::NoParent",
            HierarchyError::NoParent.into(),
            "hierarchy",
        ),
        (
            "Hierarchy::OutOfOrder",
            HierarchyError::OutOfOrder(NodeId::ROOT).into(),
            "hierarchy",
        ),
        // hrdm-core.
        (
            "Core::Hierarchy",
            CoreError::Hierarchy(HierarchyError::NoParent).into(),
            "hierarchy",
        ),
        (
            "Core::ArityMismatch",
            CoreError::ArityMismatch {
                expected: 1,
                got: 2,
            }
            .into(),
            "arity",
        ),
        (
            "Core::SchemaMismatch",
            CoreError::SchemaMismatch.into(),
            "schema",
        ),
        (
            "Core::UnknownAttribute",
            CoreError::UnknownAttribute("x".into()).into(),
            "unknown",
        ),
        (
            "Core::ContradictoryAssertion",
            CoreError::ContradictoryAssertion(item()).into(),
            "contradiction",
        ),
        (
            "Core::Inconsistent",
            CoreError::Inconsistent(vec![item()]).into(),
            "conflict",
        ),
        (
            "Core::InputInconsistent",
            CoreError::InputInconsistent(vec![item()]).into(),
            "conflict",
        ),
        (
            "Core::AttributeIndexOutOfRange",
            CoreError::AttributeIndexOutOfRange(9).into(),
            "attr-index",
        ),
        (
            "Core::DuplicateAttributeIndex",
            CoreError::DuplicateAttributeIndex(0).into(),
            "attr-index",
        ),
        (
            "Core::NoJoinAttributes",
            CoreError::NoJoinAttributes.into(),
            "join",
        ),
        (
            "Core::ConstraintViolations",
            CoreError::ConstraintViolations(vec!["v".into()]).into(),
            "constraint",
        ),
        (
            "Core::DuplicateName",
            CoreError::DuplicateName {
                kind: "relation",
                name: "R".into(),
            }
            .into(),
            "duplicate",
        ),
        (
            "Core::NotFound",
            CoreError::NotFound {
                kind: "relation",
                name: "R".into(),
            }
            .into(),
            "not-found",
        ),
        (
            "Core::InUse",
            CoreError::InUse {
                kind: "domain",
                name: "D".into(),
                by: "R".into(),
            }
            .into(),
            "in-use",
        ),
        // hrdm-hql.
        (
            "Hql::Lex",
            HqlError::Lex {
                position: 0,
                message: "m".into(),
            }
            .into(),
            "lex",
        ),
        (
            "Hql::Parse",
            HqlError::Parse {
                found: "x".into(),
                expected: "y".into(),
            }
            .into(),
            "parse",
        ),
        (
            "Hql::Unknown",
            HqlError::Unknown {
                kind: "relation",
                name: "R".into(),
            }
            .into(),
            "unknown",
        ),
        (
            "Hql::Duplicate",
            HqlError::Duplicate {
                kind: "relation",
                name: "R".into(),
            }
            .into(),
            "duplicate",
        ),
        (
            "Hql::Core",
            HqlError::Core(CoreError::NoJoinAttributes).into(),
            "join",
        ),
        (
            "Hql::Persist",
            HqlError::Persist {
                kind: "corrupt",
                message: "m".into(),
            }
            .into(),
            "corrupt",
        ),
        (
            "Hql::Execution",
            HqlError::Execution("m".into()).into(),
            "execution",
        ),
        (
            "Hql::Inconsistent",
            HqlError::Inconsistent {
                relation: "R".into(),
                conflicts: vec![],
            }
            .into(),
            "conflict",
        ),
        // hrdm-persist.
        (
            "Persist::Io",
            PersistError::Io(std::io::Error::other("io")).into(),
            "io",
        ),
        (
            "Persist::BadMagic",
            PersistError::BadMagic.into(),
            "bad-magic",
        ),
        (
            "Persist::UnsupportedVersion",
            PersistError::UnsupportedVersion(99).into(),
            "unsupported-version",
        ),
        (
            "Persist::Corrupt",
            PersistError::Corrupt("c".into()).into(),
            "corrupt",
        ),
        (
            "Persist::Rebuild",
            PersistError::Rebuild("r".into()).into(),
            "rebuild",
        ),
        (
            "Persist::NotFound",
            PersistError::NotFound("n".into()).into(),
            "not-found",
        ),
    ]
}

/// Codes that more than one distinct failure condition may share, and
/// why. Anything else colliding is a protocol regression.
///
/// * `hierarchy` — every graph-level failure, from any layer, is one
///   category on the wire.
/// * `conflict` — ambiguity-constraint violations, wherever detected.
/// * `attr-index` — both bad-attribute-index shapes of an operator call.
/// * `unknown` / `duplicate` / `not-found` — name-resolution outcomes
///   reported identically by the catalog, HQL, and image layers.
/// * `join`, `corrupt` — forwarding variants (`Hql::Core`,
///   `Hql::Persist`) exist so lower-layer codes pass through unchanged;
///   the representatives above pick codes also produced directly.
const SHARED_KINDS: &[&str] = &[
    "hierarchy",
    "conflict",
    "attr-index",
    "unknown",
    "duplicate",
    "not-found",
    "join",
    "corrupt",
];

#[test]
fn every_variant_has_its_golden_kind() {
    for (variant, error, expected) in representatives() {
        assert_eq!(
            error.kind(),
            expected,
            "{variant} must keep its stable wire code"
        );
    }
}

#[test]
fn kinds_collide_only_on_the_allowlist() {
    let mut by_kind: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (variant, error, _) in representatives() {
        by_kind.entry(error.kind()).or_default().push(variant);
    }
    for (kind, variants) in &by_kind {
        if variants.len() > 1 && !SHARED_KINDS.contains(kind) {
            panic!(
                "kind {kind:?} is shared by {variants:?} but is not on the \
                 intentional-sharing allowlist — HRDM/1 clients can no \
                 longer tell these failures apart"
            );
        }
    }
}

#[test]
fn kind_codes_are_wire_safe() {
    // `ERR <kind>` is a single space-delimited token on the wire.
    for (variant, error, _) in representatives() {
        let kind = error.kind();
        assert!(
            !kind.is_empty()
                && kind
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
            "{variant}: kind {kind:?} is not a wire-safe token"
        );
    }
}
