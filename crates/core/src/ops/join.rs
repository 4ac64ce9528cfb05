//! Natural join (§3.4, Fig. 11).
//!
//! Attributes are matched by name (their domain graphs must be the same
//! shared `Arc` — a natural join across different taxonomies of the
//! "same" domain is almost certainly a modelling error). For every pair
//! of argument tuples, the shared attributes are intersected
//! componentwise; each resulting candidate item is assigned the
//! conjunction of the truths its two *projections* bind to in the
//! respective arguments, so exceptions stored in either argument
//! propagate into the join (Fig. 11b's negated rows). A final §3.1
//! conflict-resolution fixpoint restores the ambiguity constraint when
//! incomparable candidates disagree.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use crate::error::{CoreError, Result};
use crate::item::Item;
use crate::ops::{cartesian_items, class_holds, resolve_conflicts_fixpoint};
use crate::relation::HRelation;
use crate::schema::{Attribute, Schema};
use crate::stats;
use crate::truth::Truth;
use crate::tuple::Tuple;

/// How a natural join lays out its output schema: all left attributes,
/// then the right-only ones, with the shared pairs recorded. The one
/// definition of the layout — [`join`] builds its result with it and
/// [`LogicalPlan::output_schema`](crate::plan::LogicalPlan::output_schema)
/// and the select-pushdown rewrite read it.
pub(crate) struct JoinParts {
    pub(crate) schema: Arc<Schema>,
    /// `(left position, right position)` of attributes shared by name.
    pub(crate) shared: Vec<(usize, usize)>,
    /// Right positions not shared with the left, in output order.
    pub(crate) right_only: Vec<usize>,
}

pub(crate) fn join_parts(ls: &Schema, rs: &Schema) -> Result<JoinParts> {
    let mut shared: Vec<(usize, usize)> = Vec::new();
    for (i, la) in ls.attributes().iter().enumerate() {
        if let Ok(j) = rs.index_of(la.name()) {
            if !Arc::ptr_eq(la.domain(), rs.attribute(j).domain()) {
                return Err(CoreError::SchemaMismatch);
            }
            shared.push((i, j));
        }
    }
    if shared.is_empty() {
        return Err(CoreError::NoJoinAttributes);
    }
    let right_only: Vec<usize> = (0..rs.arity())
        .filter(|j| !shared.iter().any(|&(_, sj)| sj == *j))
        .collect();
    let mut attrs: Vec<Attribute> = ls
        .attributes()
        .iter()
        .map(|a| Attribute::new(a.name(), a.domain().clone()))
        .collect();
    for &j in &right_only {
        let a = rs.attribute(j);
        attrs.push(Attribute::new(a.name(), a.domain().clone()));
    }
    Ok(JoinParts {
        schema: Arc::new(Schema::new(attrs)),
        shared,
        right_only,
    })
}

/// Natural join of two hierarchical relations.
///
/// The membership intersections (`maximal_intersection`) run over the
/// graphs' memoized subset closures; the per-candidate truth evaluation is
/// two binding-graph lookups per candidate.
pub fn join(left: &HRelation, right: &HRelation) -> Result<HRelation> {
    let mut span = hrdm_obs::span!("core.join");
    let start = Instant::now();
    let ls = left.schema();
    let rs = right.schema();
    let JoinParts {
        schema: out_schema,
        shared,
        right_only,
    } = join_parts(ls, rs)?;

    // Projections of a result item back onto the argument schemas.
    let left_arity = ls.arity();
    let project_left =
        |item: &Item| -> Item { Item::new(item.components()[..left_arity].to_vec()) };
    let project_right = |item: &Item| -> Item {
        Item::new(
            (0..rs.arity())
                .map(|j| {
                    if let Some(&(i, _)) = shared.iter().find(|&&(_, sj)| sj == j) {
                        item.component(i)
                    } else {
                        let pos = right_only.iter().position(|&r| r == j).expect("partition");
                        item.component(left_arity + pos)
                    }
                })
                .collect(),
        )
    };

    // Candidate result items from every tuple pair.
    let mut candidates: BTreeSet<Item> = BTreeSet::new();
    for (li, _) in left.iter() {
        for (ri, _) in right.iter() {
            let mut axes: Vec<Vec<hrdm_hierarchy::NodeId>> = Vec::with_capacity(out_schema.arity());
            for i in 0..left_arity {
                if let Some(&(_, j)) = shared.iter().find(|&&(si, _)| si == i) {
                    axes.push(
                        ls.domain(i)
                            .maximal_intersection(li.component(i), ri.component(j)),
                    );
                } else {
                    axes.push(vec![li.component(i)]);
                }
            }
            for &j in &right_only {
                axes.push(vec![ri.component(j)]);
            }
            for item in cartesian_items(&axes) {
                candidates.insert(item);
            }
        }
    }

    let truth_of = |item: &Item| -> Result<Truth> {
        let l = class_holds(left, &project_left(item))?;
        let r = class_holds(right, &project_right(item))?;
        Ok(Truth::from_bool(l && r))
    };

    let mut result = HRelation::with_preemption(out_schema, left.preemption());
    for item in candidates {
        let truth = truth_of(&item)?;
        result.insert(Tuple::new(item, truth))?;
    }
    resolve_conflicts_fixpoint(&mut result, truth_of)?;
    stats::record_join(start.elapsed());
    if span.is_active() {
        span.field_u64("left_rows", left.len() as u64);
        span.field_u64("right_rows", right.len() as u64);
        span.field_u64("rows", result.len() as u64);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::flatten;
    use crate::ops::project::project_names;
    use crate::ops::test_fixtures::animal_graph;
    use hrdm_hierarchy::HierarchyGraph;

    /// Fig. 4 + Fig. 11a: elephants with colours and enclosure sizes.
    fn elephant_world() -> (HRelation, HRelation) {
        let mut a = HierarchyGraph::new("Animal");
        let elephant = a.add_class("Elephant", a.root()).unwrap();
        let royal = a.add_class("Royal Elephant", elephant).unwrap();
        let indian = a.add_class("Indian Elephant", elephant).unwrap();
        a.add_instance_multi("Appu", &[royal, indian]).unwrap();
        a.add_instance("Clyde", royal).unwrap();
        let a = Arc::new(a);

        let mut c = HierarchyGraph::new("Color");
        c.add_instance("Grey", c.root()).unwrap();
        c.add_instance("White", c.root()).unwrap();
        c.add_instance("Dappled", c.root()).unwrap();
        let c = Arc::new(c);

        let mut e = HierarchyGraph::new("Enclosure Size");
        e.add_instance("3000", e.root()).unwrap();
        e.add_instance("2000", e.root()).unwrap();
        let e = Arc::new(e);

        let color_schema = Arc::new(Schema::new(vec![
            Attribute::new("Animal", a.clone()),
            Attribute::new("Color", c),
        ]));
        let mut color = HRelation::new(color_schema);
        color
            .assert_fact(&["Elephant", "Grey"], Truth::Positive)
            .unwrap();
        color
            .assert_fact(&["Royal Elephant", "Grey"], Truth::Negative)
            .unwrap();
        color
            .assert_fact(&["Royal Elephant", "White"], Truth::Positive)
            .unwrap();
        color
            .assert_fact(&["Clyde", "White"], Truth::Negative)
            .unwrap();
        color
            .assert_fact(&["Clyde", "Dappled"], Truth::Positive)
            .unwrap();

        let size_schema = Arc::new(Schema::new(vec![
            Attribute::new("Animal", a),
            Attribute::new("Enclosure Size", e),
        ]));
        let mut size = HRelation::new(size_schema);
        // Fig. 11a: elephants get 3000, Indian elephants 2000.
        size.assert_fact(&["Elephant", "3000"], Truth::Positive)
            .unwrap();
        size.assert_fact(&["Indian Elephant", "3000"], Truth::Negative)
            .unwrap();
        size.assert_fact(&["Indian Elephant", "2000"], Truth::Positive)
            .unwrap();
        (color, size)
    }

    #[test]
    fn fig11b_join_carries_exceptions() {
        let (color, size) = elephant_world();
        let joined = join(&size, &color).unwrap();
        assert_eq!(joined.schema().arity(), 3);
        // Clyde: dappled, enclosure 3000.
        let clyde = joined.item(&["Clyde", "3000", "Dappled"]).unwrap();
        assert!(flatten(&joined).contains(&clyde));
        // Appu: white, enclosure 2000 (Indian overrides the size,
        // royal overrides the colour).
        let appu = joined.item(&["Appu", "2000", "White"]).unwrap();
        assert!(flatten(&joined).contains(&appu));
        // Appu is NOT (grey, anything) nor (-, 3000).
        let wrong = joined.item(&["Appu", "3000", "White"]).unwrap();
        assert!(!flatten(&joined).contains(&wrong));
        let wrong = joined.item(&["Appu", "2000", "Grey"]).unwrap();
        assert!(!flatten(&joined).contains(&wrong));
    }

    #[test]
    fn join_flat_semantics_matches_flat_join() {
        let (color, size) = elephant_world();
        let joined = join(&size, &color).unwrap();
        // Specification: flat(join) == flat(size) ⋈ flat(color).
        let fs = flatten(&size);
        let fc = flatten(&color);
        let mut expected = std::collections::BTreeSet::new();
        for s in fs.iter() {
            for c in fc.iter() {
                if s.component(0) == c.component(0) {
                    expected.insert(Item::new(vec![
                        s.component(0),
                        s.component(1),
                        c.component(1),
                    ]));
                }
            }
        }
        assert_eq!(flatten(&joined).atoms(), &expected);
    }

    #[test]
    fn fig11c_projection_back_loses_nothing() {
        // "the join of two relations followed by a projection back on
        // one of the original relation[s]. Notice that there is no loss
        // of information."
        let (color, size) = elephant_world();
        let joined = join(&size, &color).unwrap();
        let back = project_names(&joined, &["Animal", "Color"]).unwrap();
        // Same flat model as the original colour relation, restricted to
        // animals that have an enclosure size (all elephants here).
        let fb = flatten(&back);
        let fc = flatten(&color);
        assert_eq!(fb.atoms(), fc.atoms());
    }

    #[test]
    fn join_requires_shared_attribute() {
        let (color, _) = elephant_world();
        let other_schema = Arc::new(Schema::single("Creature", animal_graph()));
        let other = HRelation::new(other_schema);
        assert!(matches!(
            join(&color, &other),
            Err(CoreError::NoJoinAttributes)
        ));
    }

    #[test]
    fn join_rejects_same_name_different_graph() {
        let (color, _) = elephant_world();
        let imposter_schema = Arc::new(Schema::single("Animal", animal_graph()));
        let imposter = HRelation::new(imposter_schema);
        assert!(matches!(
            join(&color, &imposter),
            Err(CoreError::SchemaMismatch)
        ));
    }

    #[test]
    fn join_on_single_shared_attribute_self() {
        // Self-join of the colour relation reproduces its flat model on
        // (Animal, Color, Color').
        let (color, _) = elephant_world();
        let renamed = crate::ops::rename(&color, "Color", "Color2").unwrap();
        let joined = join(&color, &renamed).unwrap();
        let f = flatten(&joined);
        // Clyde is dappled only: exactly one (Clyde, x, y) combination.
        let clyde_rows: Vec<_> = f
            .iter()
            .filter(|i| color.schema().domain(0).name(i.component(0)).as_str() == "Clyde")
            .collect();
        assert_eq!(clyde_rows.len(), 1);
    }
}
