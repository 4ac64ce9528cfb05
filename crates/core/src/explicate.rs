//! The `explicate` operator (§3.3.2): flattening class values.
//!
//! "The explicate operator takes a relation as its argument, along with
//! a specification of a subset of the attributes of the relation, and
//! produces a relation as the result. The result relation is an (in
//! fact, the only) extension of the input relation and has no
//! universally quantified classes as values for the specified
//! attributes. … This operator is useful when a count, average, or
//! other statistical operation is to be performed over the relation."
//!
//! The algorithm is the paper's: "traverse the relation subsumption
//! graph in reverse topologically sorted order. For the tuple at each
//! node, enumerate the membership of classes that are values for the
//! attributes to be explicated. Insert each tuple obtained from such
//! enumeration into the result relation unless a tuple corresponding to
//! the same item has already been inserted." Most-specific-first
//! insertion is what makes exceptions override generalizations without
//! ever consulting the binding machinery.
//!
//! Explication of an *inconsistent* relation is undefined (a conflicted
//! item's truth depends on traversal order); callers wanting a guarantee
//! should run [`crate::integrity::check_consistency`] first.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::error::{CoreError, Result};
use crate::item::Item;
use crate::relation::HRelation;
use crate::stats;
use crate::subsumption::SubsumptionGraph;
use crate::truth::Truth;

/// Explicate the listed attributes (by index) of `relation`.
///
/// Class values in the listed positions are replaced by their atomic
/// members; other positions are untouched. A class with an empty
/// extension contributes nothing (the paper's classes may be
/// intensional; explication is inherently extensional).
pub fn explicate(relation: &HRelation, attrs: &[usize]) -> Result<HRelation> {
    let arity = relation.schema().arity();
    for (k, &a) in attrs.iter().enumerate() {
        if a >= arity {
            return Err(CoreError::AttributeIndexOutOfRange(a));
        }
        if attrs[..k].contains(&a) {
            return Err(CoreError::DuplicateAttributeIndex(a));
        }
    }
    let mut span = hrdm_obs::span!("core.explicate");
    let start = Instant::now();
    let g = SubsumptionGraph::build(relation);
    let mut order = g.topo_order();
    order.reverse(); // most specific first

    let schema = relation.schema();
    // Merge each node's expansion in reverse topological order: the
    // paper's most-specific-first `or_insert` semantics.
    let mut out: BTreeMap<Item, Truth> = BTreeMap::new();
    for &v in &order {
        let truth = g.truth(v);
        // Per-position expansions: extension members for explicated
        // class positions, the original node otherwise.
        let axes: Vec<Vec<hrdm_hierarchy::NodeId>> = g
            .item(v)
            .components()
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                if attrs.contains(&i) {
                    schema.domain(i).extension(node)
                } else {
                    vec![node]
                }
            })
            .collect();
        for components in cartesian(&axes) {
            out.entry(Item::new(components)).or_insert(truth);
        }
    }

    let mut result = HRelation::with_preemption(schema.clone(), relation.preemption());
    stats::record_explicate(start.elapsed(), out.len());
    if span.is_active() {
        span.field_u64("input_rows", relation.len() as u64);
        span.field_u64("expanded", out.len() as u64);
    }
    result.replace_tuples(out);
    Ok(result)
}

/// Explicate every attribute: the full extension, §3.3.2's "equivalent
/// flat relation" with its (redundant) negated tuples still present.
pub fn explicate_all(relation: &HRelation) -> HRelation {
    let attrs: Vec<usize> = (0..relation.schema().arity()).collect();
    explicate(relation, &attrs).expect("all indexes are in range")
}

/// Odometer enumeration of the Cartesian product of the axes.
fn cartesian(axes: &[Vec<hrdm_hierarchy::NodeId>]) -> Vec<Vec<hrdm_hierarchy::NodeId>> {
    if axes.iter().any(|a| a.is_empty()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut cursor = vec![0usize; axes.len()];
    loop {
        out.push(cursor.iter().zip(axes).map(|(&c, axis)| axis[c]).collect());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidate::consolidate;
    use crate::schema::{Attribute, Schema};
    use hrdm_hierarchy::HierarchyGraph;
    use std::sync::Arc;

    fn flying() -> HRelation {
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
        let schema = Arc::new(Schema::new(vec![Attribute::new("Creature", Arc::new(g))]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Bird"], Truth::Positive).unwrap();
        r.assert_fact(&["Penguin"], Truth::Negative).unwrap();
        r.assert_fact(&["Amazing Flying Penguin"], Truth::Positive)
            .unwrap();
        r.assert_fact(&["Peter"], Truth::Positive).unwrap();
        r
    }

    #[test]
    fn full_explication_matches_bindings() {
        let r = flying();
        let flat = explicate_all(&r);
        // Every tuple of the explication is atomic.
        let product = r.schema().product();
        for (item, truth) in flat.iter() {
            assert!(product.is_atomic(item.components()));
            assert_eq!(
                r.bind(item).truth(),
                Some(truth),
                "explicated truth disagrees with binding for {item:?}"
            );
        }
        // All five instances appear.
        assert_eq!(flat.len(), 5);
        // Signs: Tweety+, Paul-, Patricia+, Pamela+, Peter+.
        assert_eq!(
            flat.stored(&r.item(&["Paul"]).unwrap()),
            Some(Truth::Negative)
        );
        assert_eq!(
            flat.stored(&r.item(&["Tweety"]).unwrap()),
            Some(Truth::Positive)
        );
        assert_eq!(
            flat.stored(&r.item(&["Patricia"]).unwrap()),
            Some(Truth::Positive)
        );
    }

    #[test]
    fn negated_tuples_redundant_after_full_explication() {
        // §3.3.2: "all the negated tuples obtained are redundant, and
        // can be removed by a consolidate that follows."
        let r = flying();
        let flat = explicate_all(&r);
        let c = consolidate(&flat);
        assert!(c.removed.iter().all(|t| t.truth == Truth::Negative));
        assert_eq!(c.removed.len(), 1); // Paul
        assert_eq!(c.relation.len(), 4);
        assert!(c.relation.iter().all(|(_, t)| t == Truth::Positive));
    }

    #[test]
    fn out_of_range_attribute_rejected() {
        let r = flying();
        assert!(matches!(
            explicate(&r, &[3]),
            Err(CoreError::AttributeIndexOutOfRange(3))
        ));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        // Regression: a repeated index used to pass through silently
        // (the membership test made it a no-op); it now errors like the
        // out-of-range case does.
        let r = flying();
        assert!(matches!(
            explicate(&r, &[0, 0]),
            Err(CoreError::DuplicateAttributeIndex(0))
        ));
        // Out-of-range is reported first when both apply.
        assert!(matches!(
            explicate(&r, &[3, 3]),
            Err(CoreError::AttributeIndexOutOfRange(3))
        ));
    }

    #[test]
    fn empty_attr_list_is_identity_modulo_duplicates() {
        let r = flying();
        let same = explicate(&r, &[]).unwrap();
        assert_eq!(same.len(), r.len());
        for (item, truth) in r.iter() {
            assert_eq!(same.stored(item), Some(truth));
        }
    }

    /// Two-attribute relation for partial explication: who-likes-what
    /// over (Animal, Food).
    fn two_attr() -> HRelation {
        let mut a = HierarchyGraph::new("Animal");
        let bird = a.add_class("Bird", a.root()).unwrap();
        a.add_instance("Tweety", bird).unwrap();
        a.add_instance("Woody", bird).unwrap();
        let mut f = HierarchyGraph::new("Food");
        let seed = f.add_class("Seed", f.root()).unwrap();
        f.add_instance("Millet", seed).unwrap();
        f.add_instance("Sunflower", seed).unwrap();
        let schema = Arc::new(Schema::new(vec![
            Attribute::new("Animal", Arc::new(a)),
            Attribute::new("Food", Arc::new(f)),
        ]));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Bird", "Seed"], Truth::Positive).unwrap();
        r.assert_fact(&["Tweety", "Sunflower"], Truth::Negative)
            .unwrap();
        r
    }

    #[test]
    fn partial_explication_explicates_only_listed_attrs() {
        let r = two_attr();
        let part = explicate(&r, &[0]).unwrap();
        // Animal positions are all instances; Food may keep classes.
        for (item, _) in part.iter() {
            assert!(r.schema().domain(0).is_instance(item.component(0)));
        }
        // Tuples: +(Tweety, ∀Seed) shadowed... expansion of +(Bird,Seed)
        // gives (Tweety, Seed), (Woody, Seed); the exception stays
        // (Tweety, Sunflower)-.
        assert_eq!(part.len(), 3);
        let tweety_seed = r.item(&["Tweety", "Seed"]).unwrap();
        assert_eq!(part.stored(&tweety_seed), Some(Truth::Positive));
        let tweety_sun = r.item(&["Tweety", "Sunflower"]).unwrap();
        assert_eq!(part.stored(&tweety_sun), Some(Truth::Negative));
    }

    #[test]
    fn partial_explication_preserves_flat_meaning() {
        let r = two_attr();
        let part = explicate(&r, &[0]).unwrap();
        let full_direct = explicate_all(&r);
        let full_two_step = explicate_all(&part);
        assert_eq!(full_direct.len(), full_two_step.len());
        for (item, truth) in full_direct.iter() {
            assert_eq!(full_two_step.stored(item), Some(truth), "{item:?}");
        }
    }

    #[test]
    fn exception_overrides_in_explication() {
        let r = two_attr();
        let flat = explicate_all(&r);
        assert_eq!(
            flat.stored(&r.item(&["Tweety", "Sunflower"]).unwrap()),
            Some(Truth::Negative)
        );
        assert_eq!(
            flat.stored(&r.item(&["Woody", "Sunflower"]).unwrap()),
            Some(Truth::Positive)
        );
        assert_eq!(flat.len(), 4);
    }

    #[test]
    fn class_without_instances_contributes_nothing() {
        let mut g = HierarchyGraph::new("D");
        g.add_class("Empty", g.root()).unwrap();
        let schema = Arc::new(Schema::single("D", Arc::new(g)));
        let mut r = HRelation::new(schema);
        r.assert_fact(&["Empty"], Truth::Positive).unwrap();
        let flat = explicate_all(&r);
        assert!(flat.is_empty());
    }

    #[test]
    fn cartesian_helper() {
        use hrdm_hierarchy::NodeId;
        let n = NodeId::from_index;
        assert_eq!(cartesian(&[]).len(), 1, "nullary product has one element");
        assert!(cartesian(&[vec![], vec![n(1)]]).is_empty());
        let out = cartesian(&[vec![n(1), n(2)], vec![n(3)]]);
        assert_eq!(out, vec![vec![n(1), n(3)], vec![n(2), n(3)]]);
    }
}
