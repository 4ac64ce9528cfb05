//! Standard relational operators over hierarchical relations (§3.4).
//!
//! "Standard relational operators continue to work with hierarchical
//! relations" — with the invariant of §3 as their specification: *any
//! manipulation must have the same effect whether performed on the
//! hierarchical relation or on its equivalent flat relation*. Each
//! operator here is implemented directly on the stored tuples (never by
//! explicating) and property-tested against the flat baseline.
//!
//! The common evaluation pattern: generate *candidate* result items from
//! the argument tuples, evaluate each candidate's truth **through the
//! binding machinery of the arguments** (so that exceptions and
//! preemption carry over), and then run a conflict-resolution fixpoint —
//! when two incomparable candidates end up with opposite truth values,
//! the §3.1 resolution tuples are synthesized at their common
//! descendants. The fixpoint mirrors exactly what the paper requires of
//! a front end resolving conflicts by hand.

pub mod aggregate;
pub mod join;
pub mod project;
pub mod select;
pub mod set_ops;

pub use aggregate::{cardinality, group_count, group_count_by_name};
pub use join::join;
pub use project::{project, project_names, rename};
pub use select::{select, select_eq};
pub use set_ops::{difference, intersection, union};

use crate::binding::Verdict;
use crate::conflict::find_conflicts;
use crate::error::{CoreError, Result};
use crate::item::Item;
use crate::relation::HRelation;
use crate::truth::Truth;

/// The closed-world truth of a (possibly composite) item in `relation`:
/// positive binding → `true`; negative or unspecified → `false`;
/// conflict → the input violates its ambiguity constraint.
pub(crate) fn class_holds(relation: &HRelation, item: &Item) -> Result<bool> {
    match relation.verdict(item) {
        Verdict::Truth(t) => Ok(t.holds()),
        Verdict::Unspecified => Ok(false),
        Verdict::Conflict => Err(CoreError::InputInconsistent(vec![item.clone()])),
    }
}

/// Componentwise restriction of `item` to `region`: the Cartesian
/// product of per-attribute maximal intersections. Empty when the two
/// items are provably disjoint in some attribute.
pub(crate) fn restrict(schema: &crate::schema::Schema, item: &Item, region: &Item) -> Vec<Item> {
    let axes: Vec<Vec<hrdm_hierarchy::NodeId>> = (0..schema.arity())
        .map(|i| {
            schema
                .domain(i)
                .maximal_intersection(item.component(i), region.component(i))
        })
        .collect();
    cartesian_items(&axes)
}

/// Cartesian product of per-attribute node lists as items.
pub(crate) fn cartesian_items(axes: &[Vec<hrdm_hierarchy::NodeId>]) -> Vec<Item> {
    if axes.iter().any(|a| a.is_empty()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut cursor = vec![0usize; axes.len()];
    loop {
        out.push(Item::new(
            cursor.iter().zip(axes).map(|(&c, ax)| ax[c]).collect(),
        ));
        let mut pos = axes.len();
        loop {
            if pos == 0 {
                return out;
            }
            pos -= 1;
            cursor[pos] += 1;
            if cursor[pos] < axes[pos].len() {
                break;
            }
            cursor[pos] = 0;
        }
    }
}

/// Insert synthesized §3.1 resolution tuples until the result satisfies
/// its ambiguity constraint. `truth_of` computes the correct truth for a
/// conflicted item from the operator's arguments.
///
/// Terminates because each round inserts tuples only at items that had
/// none, strictly below existing tuples in the finite item hierarchy.
pub(crate) fn resolve_conflicts_fixpoint(
    result: &mut HRelation,
    mut truth_of: impl FnMut(&Item) -> Result<Truth>,
) -> Result<()> {
    loop {
        let conflicts = find_conflicts(result);
        if conflicts.is_empty() {
            return Ok(());
        }
        for c in conflicts {
            let t = truth_of(&c.item)?;
            result.insert(crate::tuple::Tuple::new(c.item, t))?;
        }
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! Shared relation fixtures for operator tests: the paper's running
    //! examples.

    use crate::relation::HRelation;
    use crate::schema::{Attribute, Schema};
    use crate::truth::Truth;
    use hrdm_hierarchy::HierarchyGraph;
    use std::sync::Arc;

    /// Fig. 1a taxonomy as a shared graph.
    pub fn animal_graph() -> Arc<HierarchyGraph> {
        let mut g = HierarchyGraph::new("Animal");
        let bird = g.add_class("Bird", g.root()).unwrap();
        let canary = g.add_class("Canary", bird).unwrap();
        g.add_instance("Tweety", canary).unwrap();
        let penguin = g.add_class("Penguin", bird).unwrap();
        let gala = g.add_class("Galapagos Penguin", penguin).unwrap();
        let afp = g.add_class("Amazing Flying Penguin", penguin).unwrap();
        g.add_instance("Paul", gala).unwrap();
        g.add_instance_multi("Patricia", &[gala, afp]).unwrap();
        g.add_instance("Pamela", afp).unwrap();
        g.add_instance("Peter", afp).unwrap();
        Arc::new(g)
    }

    /// Single-attribute schema over the Fig. 1a taxonomy.
    pub fn animal_schema() -> Arc<Schema> {
        Arc::new(Schema::single("Creature", animal_graph()))
    }

    /// The Fig. 1b flying-creatures relation.
    pub fn flying(schema: &Arc<Schema>) -> HRelation {
        let mut r = HRelation::new(schema.clone());
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        r.assert_fact(&["Amazing Flying Penguin"], Truth::Positive)
            .unwrap();
        r.assert_fact(&["Peter"], Truth::Positive).unwrap();
        r
    }

    /// Figs. 2–3 Respects relation (with the conflict resolved).
    pub fn respects() -> HRelation {
        let mut s = HierarchyGraph::new("Student");
        let ob = s.add_class("Obsequious Student", s.root()).unwrap();
        s.add_instance("John", ob).unwrap();
        s.add_instance("Mary", s.root()).unwrap();
        let mut t = HierarchyGraph::new("Teacher");
        let ic = t.add_class("Incoherent Teacher", t.root()).unwrap();
        t.add_instance("Smith", ic).unwrap();
        t.add_instance("Jones", t.root()).unwrap();
        let schema = Arc::new(Schema::new(vec![
            Attribute::new("Student", Arc::new(s)),
            Attribute::new("Teacher", Arc::new(t)),
        ]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Obsequious Student", "Teacher"], Truth::Positive)
            .unwrap();
        r.assert_fact(&["Student", "Incoherent Teacher"], Truth::Negative)
            .unwrap();
        r.assert_fact(
            &["Obsequious Student", "Incoherent Teacher"],
            Truth::Positive,
        )
        .unwrap();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_fixtures::*;

    #[test]
    fn class_holds_closed_world() {
        let schema = animal_schema();
        let r = flying(&schema);
        assert!(class_holds(&r, &r.item(&["Bird"]).unwrap()).unwrap());
        assert!(!class_holds(&r, &r.item(&["Penguin"]).unwrap()).unwrap());
        // Nothing asserted above Bird: closed world says false.
        assert!(!class_holds(&r, &r.item(&["Animal"]).unwrap()).unwrap());
    }

    #[test]
    fn class_holds_rejects_conflicted_input() {
        let schema = animal_schema();
        let mut r = flying(&schema);
        r.assert_fact(&["Galapagos Penguin"], Truth::Negative)
            .unwrap();
        let patricia = r.item(&["Patricia"]).unwrap();
        assert!(matches!(
            class_holds(&r, &patricia),
            Err(CoreError::InputInconsistent(_))
        ));
    }

    #[test]
    fn restrict_comparable_and_disjoint() {
        let schema = animal_schema();
        let r = flying(&schema);
        let bird = r.item(&["Bird"]).unwrap();
        let penguin = r.item(&["Penguin"]).unwrap();
        assert_eq!(restrict(&schema, &bird, &penguin), vec![penguin.clone()]);
        let canary = r.item(&["Canary"]).unwrap();
        assert!(restrict(&schema, &canary, &penguin).is_empty());
        // Incomparable with common instance: Patricia.
        let gala = r.item(&["Galapagos Penguin"]).unwrap();
        let afp = r.item(&["Amazing Flying Penguin"]).unwrap();
        assert_eq!(
            restrict(&schema, &gala, &afp),
            vec![r.item(&["Patricia"]).unwrap()]
        );
    }

    #[test]
    fn cartesian_items_shapes() {
        use hrdm_hierarchy::NodeId;
        let n = NodeId::from_index;
        assert_eq!(
            cartesian_items(&[]).len(),
            1,
            "nullary product has one element"
        );
        assert!(cartesian_items(&[vec![], vec![n(0)]]).is_empty());
        let out = cartesian_items(&[vec![n(0), n(1)], vec![n(2), n(3)]]);
        assert_eq!(out.len(), 4);
        let out = cartesian_items(&[vec![n(1), n(2)], vec![n(3)]]);
        assert_eq!(out, [vec![n(1), n(3)], vec![n(2), n(3)]].map(Item::new));
    }
}
